// Fault injection: scheduled device disconnects (paper §III-D) and
// speed drift (thermal throttles, background load) for the control loop.
//
// A fault is an interval [down_at, up_at) of virtual time during which a
// device is unreachable. up_at may be infinity for a permanent failure.
// A drift event is a round-indexed multiplier on a device's true step
// time; devices without drift always multiply by exactly 1.0.
//
// Fleet-scale churn plans schedule one event per churning device, and the
// liveness queries (`alive`, `fails_within`) run per device per round, so
// events are indexed by device in a dense array: a query for a device
// without events is one bounds check and one array read, not a hash lookup
// or a scan of the full plan.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "sim/device.hpp"
#include "sim/time.hpp"

namespace hadfl::sim {

struct FaultEvent {
  DeviceId device = 0;
  SimTime down_at = 0.0;
  SimTime up_at = std::numeric_limits<SimTime>::infinity();
};

/// Shape of a speed-drift injection (step-time multiplier over rounds).
enum class DriftKind : std::uint8_t {
  kStep = 0,   ///< jumps to `factor` at from_round and stays there
  kRamp = 1,   ///< thermal throttle: ramps 1 → factor over ramp_rounds
  kSquare = 2  ///< background load: `duty` rounds at factor per `period`
};

/// A scheduled change to a device's true per-step compute time, indexed by
/// sync round (drift is a compute-speed phenomenon; rounds are the unit at
/// which the scheduler re-plans, so both backends evaluate it identically).
struct DriftEvent {
  DeviceId device = 0;
  std::size_t from_round = 0;  ///< first sync round the drift applies to
  double factor = 1.0;         ///< step-time multiplier at full effect
  DriftKind kind = DriftKind::kStep;
  std::size_t ramp_rounds = 1;  ///< kRamp: rounds to reach `factor`
  std::size_t period = 2;       ///< kSquare: full wave length in rounds
  std::size_t duty = 1;         ///< kSquare: loaded rounds per period
};

class FaultInjector {
 public:
  FaultInjector() = default;

  void schedule(FaultEvent event);
  void schedule_disconnect(DeviceId device, SimTime down_at);

  /// True if the device is reachable at virtual time `t`. O(events of this
  /// device), not O(all events). Safe to call concurrently (read-only).
  bool alive(DeviceId device, SimTime t) const;

  /// True if the device is down at any point within [t0, t1].
  bool fails_within(DeviceId device, SimTime t0, SimTime t1) const;

  void schedule_drift(DriftEvent event);

  /// The device's step-time multiplier at the given sync round: the product
  /// of all of its drift events' contributions. Exactly 1.0 when the device
  /// has no drift scheduled, so drift-free runs multiply step times by 1.0
  /// and stay bit-identical.
  double drift_multiplier(DeviceId device, std::size_t round) const;

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  const std::vector<DriftEvent>& drift_events() const { return drift_; }
  bool has_drift() const { return !drift_.empty(); }

 private:
  static constexpr std::uint32_t kNoEvent = ~std::uint32_t{0};

  /// Head of the device's event chain, or kNoEvent.
  std::uint32_t first_event(DeviceId device) const {
    return device < first_event_.size() ? first_event_[device] : kNoEvent;
  }

  std::vector<FaultEvent> events_;
  /// device -> its most recently scheduled event, sized to the largest
  /// scheduled id + 1 (ids above it have no events); kNoEvent if none.
  std::vector<std::uint32_t> first_event_;
  /// event index -> the same device's previously scheduled event, or
  /// kNoEvent: each device's events form one chain through events_.
  std::vector<std::uint32_t> next_event_;
  std::vector<DriftEvent> drift_;
  std::unordered_map<DeviceId, std::vector<std::uint32_t>> drift_by_device_;
};

}  // namespace hadfl::sim
