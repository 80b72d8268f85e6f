// Fleet-scale experiment world: the one construction path for 10^4–10^6
// device scenarios, shared by `hadfl_run --fleet` and bench/fleet_scale so
// both see the identical cluster, partition, and churn plan for a given
// (devices, seed) pair.
//
// A fleet world deliberately does NOT reuse exp::Environment: at K = 10^5
// the per-device spec vector, the shuffled IID partition, and a
// dataset-per-device split are exactly the O(K) costs the fleet stack
// removes. Instead the world cycles a compute-ratio pattern through a
// struct-of-arrays DeviceTable, oversubscribes a fixed synthetic dataset
// with the deterministic cyclic partition (one 16-byte window per device
// into a pool of at most dataset_size + samples_per_device - 1 indices,
// not a private index list per device), and schedules a staggered churn
// plan (one fault interval per churning device, a slice of them
// permanent).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/partition.hpp"
#include "exp/scenario.hpp"
#include "fl/scheme.hpp"

namespace hadfl::exp {

/// Deterministic churn plan: `fraction` of the fleet disconnects once,
/// outage starts staggered across [start, start + spread), and
/// `permanent_fraction` of the churners never come back. Churner ids are
/// evenly strided over 0..K-1; start times and permanence draw from
/// Rng(seed ^ 0xC0FFEE), one (uniform, uniform) pair per churner in id
/// order, so the plan is a pure function of (devices, seed, this struct).
struct FleetChurnConfig {
  double fraction = 0.0;            ///< of the fleet; 0 = no churn
  double permanent_fraction = 0.25; ///< of the churners
  double start = 2.0;               ///< virtual s of the earliest outage
  double spread = 200.0;            ///< stagger window, virtual s
  double outage = 30.0;             ///< transient down interval, virtual s
};

struct FleetWorldConfig {
  std::size_t devices = 1000;              ///< K
  std::vector<double> ratio{3, 3, 1, 1};   ///< compute pattern, cycled
  double jitter_std = 0.0;                 ///< per-burst compute noise
  double momentum = 0.0;                   ///< SGD momentum, in [0, 1)
  std::size_t samples_per_device = 64;     ///< cyclic oversubscription
  int epochs = 4;                          ///< total training epochs
  std::uint64_t seed = 7;
  FleetChurnConfig churn;
};

/// The materialized fleet scenario: synthetic dataset, cyclic partition,
/// SoA cluster with the churn plan installed. Owns everything a
/// SchemeContext references, so it must outlive every context() call.
class FleetWorld {
 public:
  explicit FleetWorld(const FleetWorldConfig& config);

  const FleetWorldConfig& config() const { return config_; }
  Scenario& scenario() { return scenario_; }
  const Scenario& scenario() const { return scenario_; }
  sim::Cluster& cluster() { return *cluster_; }
  std::size_t devices() const { return config_.devices; }

  /// Scheduled churn events (size 0 when churn.fraction == 0).
  std::size_t churn_events() const;

  /// A context viewing this world's cluster, dataset, and partition.
  fl::SchemeContext context();

 private:
  FleetWorldConfig config_;
  Scenario scenario_;
  data::TrainTestSplit split_;
  data::Partition partition_;
  std::unique_ptr<sim::Cluster> cluster_;
};

}  // namespace hadfl::exp
