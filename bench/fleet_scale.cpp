// Fleet-scale sweep: the fleet engine (core/fleet.hpp) on generated fleet
// worlds (exp/fleet_world.hpp) at K in {1k, 10k, 100k, 1M} with 2% device
// churn, momentum 0.9, and a 64-device training cohort. Reported per K:
// wall-clock rounds/sec, the CoW store's peak model + velocity memory next
// to the naive per-device baseline (one model state + one last-sync
// reference + one velocity buffer per device, what an engine without
// shared copy-on-write slabs keeps resident), resident bytes/device,
// communication MB/device, and process VmRSS. The sweep closes with a
// serial-vs-parallel comparison of the per-round O(K) scalar sweeps at
// K=100k (results are bit-identical; only wall time moves). Results also
// land in a JSON file (--out=PATH, default BENCH_fleet.json) so later
// changes have a perf trajectory to regress against.
//
// --drift runs the cohort-approximation study instead: exact mode vs
// sampled cohorts at K=2048 across cohort sizes, reporting the accuracy
// deviation the unselected devices' approximated model drift costs
// (BENCH_fleet_drift.json).
//
// Plain executable (no google-benchmark) so CI can run `fleet_scale
// --smoke` as a cheap post-build gate: a K=10k churned cohort run must
// clear a rounds/sec floor and a resident-memory ceiling, the parallel
// scalar path must match the serial baseline bit for bit, and a K=10^6 run
// must complete a multi-round sweep inside its own rounds/sec floor and
// RSS ceiling. Exact mode is `core::run_hadfl` itself; test_rt and
// `micro_rt --smoke` pin it against the independent rt backend.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/table.hpp"
#include "core/fleet.hpp"
#include "exp/cli_setup.hpp"
#include "exp/fleet_world.hpp"
#include "exp/runner.hpp"

namespace {

using namespace hadfl;

/// Resident set size from /proc/self/status, in KiB (0 if unreadable).
long vm_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

struct SweepRow {
  std::size_t devices = 0;
  std::size_t rounds = 0;
  double wall_seconds = 0.0;
  double rounds_per_sec = 0.0;
  std::size_t train_episodes = 0;
  std::size_t peak_state_bytes = 0;     ///< model store high-water
  std::size_t peak_velocity_bytes = 0;  ///< optimizer store high-water
  std::size_t naive_state_bytes = 0;
  double memory_reduction = 0.0;    ///< naive / (peak model + velocity)
  double bytes_per_device = 0.0;    ///< peak resident bytes / K
  double comm_mb_per_device = 0.0;  ///< priced wire volume / K
  std::size_t churn_events = 0;
  long vm_rss_kb = 0;
  std::uint64_t state_hash = 0;  ///< FNV-1a of the final state bits
};

constexpr std::size_t kCohort = 64;
constexpr double kChurnFraction = 0.02;
constexpr double kMomentum = 0.9;

struct RunOpts {
  std::size_t devices = 1000;
  std::size_t max_rounds = 6;
  std::size_t cohort = kCohort;
  std::size_t threads = 0;  ///< FleetConfig::scalar_threads (1 = serial)
  double momentum = kMomentum;
};

SweepRow run_config(const RunOpts& opts) {
  exp::FleetWorldConfig fw;
  fw.devices = opts.devices;
  fw.ratio = {4, 2, 2, 1};
  fw.churn.fraction = kChurnFraction;
  fw.momentum = opts.momentum;
  // Generous per-device epoch budget so the round cap is what stops the
  // run (each round trains at most ~4 shard epochs on the fastest tier).
  fw.epochs = static_cast<int>(4 * opts.max_rounds);
  exp::FleetWorld world(fw);

  core::FleetConfig fleet;
  fleet.cohort = opts.cohort;
  fleet.max_rounds = opts.max_rounds;
  fleet.scalar_threads = opts.threads;

  const auto start = std::chrono::steady_clock::now();
  const core::FleetResult r =
      core::run_hadfl_fleet(world.context(), world.scenario().hadfl, fleet);
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;

  SweepRow row;
  row.devices = opts.devices;
  row.rounds = r.stats.rounds;
  row.wall_seconds = wall.count();
  row.rounds_per_sec =
      row.wall_seconds > 0.0
          ? static_cast<double>(r.stats.rounds) / row.wall_seconds
          : 0.0;
  row.train_episodes = r.stats.train_episodes;
  row.peak_state_bytes = r.stats.peak_state_bytes;
  row.peak_velocity_bytes = r.stats.peak_velocity_bytes;
  row.naive_state_bytes = r.stats.naive_state_bytes;
  const std::size_t peak_total =
      r.stats.peak_state_bytes + r.stats.peak_velocity_bytes;
  row.memory_reduction =
      peak_total > 0 ? static_cast<double>(r.stats.naive_state_bytes) /
                           static_cast<double>(peak_total)
                     : 0.0;
  row.bytes_per_device = static_cast<double>(peak_total) /
                         static_cast<double>(opts.devices);
  row.comm_mb_per_device =
      static_cast<double>(r.scheme.volume.total_sent() +
                          r.scheme.volume.total_received()) /
      (1024.0 * 1024.0) / static_cast<double>(opts.devices);
  row.churn_events = world.churn_events();
  row.vm_rss_kb = vm_rss_kb();
  row.state_hash = exp::state_hash(r.scheme.final_state);
  return row;
}

void write_json(const std::string& path, const std::vector<SweepRow>& rows,
                const SweepRow& serial_100k, const SweepRow& parallel_100k) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fleet_scale\",\n  \"cohort\": %zu,\n"
               "  \"churn_fraction\": %.4f,\n  \"momentum\": %.2f,\n"
               "  \"configs\": [\n",
               kCohort, kChurnFraction, kMomentum);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"devices\": %zu, \"rounds\": %zu, \"churn_events\": %zu,\n"
        "     \"wall_seconds\": %.6f, \"rounds_per_sec\": %.3f,\n"
        "     \"train_episodes\": %zu,\n"
        "     \"peak_state_bytes\": %zu, \"peak_velocity_bytes\": %zu,\n"
        "     \"naive_state_bytes\": %zu,\n"
        "     \"memory_reduction\": %.1f, \"bytes_per_device\": %.1f,\n"
        "     \"comm_mb_per_device\": %.3f, \"vm_rss_kb\": %ld}%s\n",
        r.devices, r.rounds, r.churn_events, r.wall_seconds,
        r.rounds_per_sec, r.train_episodes, r.peak_state_bytes,
        r.peak_velocity_bytes, r.naive_state_bytes, r.memory_reduction,
        r.bytes_per_device, r.comm_mb_per_device, r.vm_rss_kb,
        i + 1 < rows.size() ? "," : "");
  }
  const double speedup = parallel_100k.wall_seconds > 0.0
                             ? serial_100k.wall_seconds /
                                   parallel_100k.wall_seconds
                             : 0.0;
  // hardware_threads contextualizes the speedup: on a 1-core runner the
  // parallel leg time-slices and speedup hovers at ~1x by construction.
  std::fprintf(
      f,
      "  ],\n  \"scalar_parallelism_100k\": {\n"
      "    \"hardware_threads\": %zu,\n"
      "    \"serial_wall_seconds\": %.6f,\n"
      "    \"parallel_wall_seconds\": %.6f,\n"
      "    \"speedup\": %.3f,\n"
      "    \"bit_identical\": %s\n  }\n}\n",
      default_compute_threads(), serial_100k.wall_seconds,
      parallel_100k.wall_seconds, speedup,
      serial_100k.state_hash == parallel_100k.state_hash ? "true" : "false");
  std::fclose(f);
  std::printf("\nresults written to %s\n", path.c_str());
}

// ---- drift mode ----------------------------------------------------------

// Exact mode prices every device's SGD; cohort mode prices everything
// analytically but moves unselected devices' models only through shared
// broadcast integration. This study measures what that approximation costs
// in converged accuracy as the cohort shrinks.
int run_drift(const std::string& path) {
  constexpr std::size_t kDriftDevices = 2048;
  constexpr std::size_t kDriftRounds = 8;

  struct DriftRow {
    std::size_t cohort = 0;  ///< 0 = exact
    double accuracy = 0.0;
    double wall_seconds = 0.0;
    std::size_t train_episodes = 0;
  };

  auto run_one = [&](std::size_t cohort) {
    exp::FleetWorldConfig fw;
    fw.devices = kDriftDevices;
    fw.ratio = {4, 2, 2, 1};
    fw.momentum = kMomentum;
    fw.epochs = static_cast<int>(4 * kDriftRounds);
    exp::FleetWorld world(fw);
    core::FleetConfig fleet;
    fleet.cohort = cohort;
    fleet.max_rounds = kDriftRounds;
    const auto start = std::chrono::steady_clock::now();
    const core::FleetResult r = core::run_hadfl_fleet(
        world.context(), world.scenario().hadfl, fleet);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    DriftRow row;
    row.cohort = cohort;
    row.accuracy = exp::summarize(r.scheme.metrics).best_accuracy;
    row.wall_seconds = wall.count();
    row.train_episodes = r.stats.train_episodes;
    return row;
  };

  std::printf("FLEET DRIFT: K=%zu, %zu rounds, momentum %.1f\n\n",
              kDriftDevices, kDriftRounds, kMomentum);
  const DriftRow exact = run_one(0);
  std::printf("exact: accuracy %.2f%% (%zu episodes, %.1fs)\n",
              100.0 * exact.accuracy, exact.train_episodes,
              exact.wall_seconds);

  TextTable table({"cohort", "accuracy", "deviation [pp]", "episodes",
                   "wall [s]"});
  std::vector<DriftRow> rows;
  for (const std::size_t cohort : {16u, 64u, 256u, 1024u}) {
    const DriftRow row = run_one(cohort);
    rows.push_back(row);
    table.add_row({std::to_string(row.cohort),
                   TextTable::num(100.0 * row.accuracy, 2) + "%",
                   TextTable::num(100.0 * (row.accuracy - exact.accuracy), 2),
                   std::to_string(row.train_episodes),
                   TextTable::num(row.wall_seconds, 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("\nExpected shape: deviation shrinks as the cohort grows "
              "toward K (a cohort >= K\nis exact by construction); episode "
              "count — the actual SGD cost — scales with\nthe cohort, not "
              "the fleet.\n");

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::printf("cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"fleet_drift\",\n  \"devices\": %zu,\n"
               "  \"rounds\": %zu,\n  \"momentum\": %.2f,\n"
               "  \"exact_accuracy\": %.6f,\n"
               "  \"exact_train_episodes\": %zu,\n  \"configs\": [\n",
               kDriftDevices, kDriftRounds, kMomentum, exact.accuracy,
               exact.train_episodes);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DriftRow& r = rows[i];
    std::fprintf(f,
                 "    {\"cohort\": %zu, \"accuracy\": %.6f,\n"
                 "     \"accuracy_deviation\": %.6f,\n"
                 "     \"train_episodes\": %zu, \"wall_seconds\": %.3f}%s\n",
                 r.cohort, r.accuracy, r.accuracy - exact.accuracy,
                 r.train_episodes, r.wall_seconds,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nresults written to %s\n", path.c_str());
  return 0;
}

// ---- smoke mode ----------------------------------------------------------

// CI gate: (1) a K=10k churned cohort run finishes fast enough and small
// enough, and the parallel scalar path reproduces the serial baseline bit
// for bit; (2) a K=10^6 run completes a multi-round sweep inside its own
// floors.
int run_smoke() {
  int failures = 0;

  {
    RunOpts opts;
    opts.devices = 10000;
    opts.max_rounds = 4;
    opts.threads = 1;  // serial baseline
    const SweepRow serial = run_config(opts);
    opts.threads = 4;
    const SweepRow parallel = run_config(opts);
    // Floors/ceilings sit ~10x away from the measured numbers (a debug or
    // sanitizer build still clears them; a complexity regression does not).
    // Peak model memory is O(cohort * rounds) — every device that ever
    // trained keeps a distinct (state, last-sync) pair — so the expected
    // reduction at this config is K / (cohort * rounds) ~ 39x; the 50x
    // acceptance bar is a K=100k property (measured ~260x, see the sweep).
    constexpr double kMinRoundsPerSec = 0.5;
    constexpr double kMinMemoryReduction = 20.0;
    constexpr long kMaxVmRssKb = 1500L * 1024L;  // 1.5 GiB
    std::printf("K=10000: %zu rounds, %.2f rounds/sec, peak %.2f MB "
                "(naive %.2f MB, %.0fx less), VmRSS %ld MB\n",
                serial.rounds, serial.rounds_per_sec,
                static_cast<double>(serial.peak_state_bytes +
                                    serial.peak_velocity_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(serial.naive_state_bytes) /
                    (1024.0 * 1024.0),
                serial.memory_reduction, serial.vm_rss_kb / 1024);
    if (serial.rounds == 0 || serial.churn_events == 0) {
      std::printf("FAIL: K=10k churned run did not execute rounds\n");
      ++failures;
    }
    if (serial.rounds_per_sec < kMinRoundsPerSec) {
      std::printf("FAIL: K=10k rounds/sec %.3f below floor %.3f\n",
                  serial.rounds_per_sec, kMinRoundsPerSec);
      ++failures;
    }
    if (serial.memory_reduction < kMinMemoryReduction) {
      std::printf("FAIL: K=10k memory reduction %.1fx below %.0fx\n",
                  serial.memory_reduction, kMinMemoryReduction);
      ++failures;
    }
    if (serial.vm_rss_kb > kMaxVmRssKb) {
      std::printf("FAIL: K=10k VmRSS %ld kB above ceiling %ld kB\n",
                  serial.vm_rss_kb, kMaxVmRssKb);
      ++failures;
    }
    if (serial.state_hash != parallel.state_hash ||
        serial.rounds != parallel.rounds ||
        serial.train_episodes != parallel.train_episodes) {
      std::printf("FAIL: K=10k serial (threads=1) and parallel (threads=4) "
                  "scalar sweeps diverge (hash 0x%016llx vs 0x%016llx)\n",
                  static_cast<unsigned long long>(serial.state_hash),
                  static_cast<unsigned long long>(parallel.state_hash));
      ++failures;
    }
  }

  {
    // The tentpole scale: one process, 10^6 devices, multi-round. Floors
    // sit far below healthy numbers so sanitizer builds still pass; a
    // complexity or footprint regression does not.
    RunOpts opts;
    opts.devices = 1000000;
    opts.max_rounds = 2;
    const SweepRow row = run_config(opts);
    constexpr double kMinRoundsPerSecAtM = 0.02;  // 50 s/round ceiling
    constexpr long kMaxVmRssKbAtM = 6L * 1024L * 1024L;  // 6 GiB
    std::printf("K=1000000: %zu rounds, %.3f rounds/sec, VmRSS %ld MB\n",
                row.rounds, row.rounds_per_sec, row.vm_rss_kb / 1024);
    if (row.rounds < 2) {
      std::printf("FAIL: K=10^6 run did not complete a multi-round sweep\n");
      ++failures;
    }
    if (row.rounds_per_sec < kMinRoundsPerSecAtM) {
      std::printf("FAIL: K=10^6 rounds/sec %.4f below floor %.4f\n",
                  row.rounds_per_sec, kMinRoundsPerSecAtM);
      ++failures;
    }
    if (row.vm_rss_kb > kMaxVmRssKbAtM) {
      std::printf("FAIL: K=10^6 VmRSS %ld kB above ceiling %ld kB\n",
                  row.vm_rss_kb, kMaxVmRssKbAtM);
      ++failures;
    }
  }

  if (failures == 0) {
    std::printf("fleet_scale --smoke: K=10k churned cohort run within "
                "perf and memory gates, serial == parallel bit for bit; "
                "K=10^6 multi-round run within floors\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return run_smoke();
    if (std::string(argv[i]) == "--drift") {
      return run_drift("BENCH_fleet_drift.json");
    }
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }

  std::printf("FLEET SCALE: cohort %zu, churn %.0f%%, momentum %.1f, "
              "pattern [4,2,2,1]\n\n",
              kCohort, 100.0 * kChurnFraction, kMomentum);
  TextTable table({"K", "rounds", "rounds/sec", "peak mem [MB]",
                   "naive [MB]", "reduction", "B/device", "comm MB/dev",
                   "VmRSS [MB]"});
  std::vector<SweepRow> rows;
  for (const std::size_t k : {1000u, 10000u, 100000u, 1000000u}) {
    RunOpts opts;
    opts.devices = k;
    const SweepRow row = run_config(opts);
    rows.push_back(row);
    table.add_row(
        {std::to_string(row.devices), std::to_string(row.rounds),
         TextTable::num(row.rounds_per_sec, 2),
         TextTable::num(static_cast<double>(row.peak_state_bytes +
                                            row.peak_velocity_bytes) /
                            (1024.0 * 1024.0), 2),
         TextTable::num(static_cast<double>(row.naive_state_bytes) /
                            (1024.0 * 1024.0), 1),
         TextTable::num(row.memory_reduction, 0) + "x",
         TextTable::num(row.bytes_per_device, 0),
         TextTable::num(row.comm_mb_per_device, 2),
         std::to_string(row.vm_rss_kb / 1024)});
  }
  std::printf("%s", table.render().c_str());

  // Serial vs parallel scalar sweeps at K=100k: same bits, less wall time
  // (given cores — on a 1-hardware-thread runner this is ~1x by
  // construction and only the bit-identity line is meaningful).
  RunOpts serial_opts;
  serial_opts.devices = 100000;
  serial_opts.threads = 1;
  const SweepRow serial = run_config(serial_opts);
  serial_opts.threads = 4;
  const SweepRow parallel = run_config(serial_opts);
  std::printf("\nK=100k scalar sweeps (%zu hardware threads): serial "
              "%.2fs, parallel %.2fs (%.2fx), bit-identical: %s\n",
              default_compute_threads(), serial.wall_seconds,
              parallel.wall_seconds,
              parallel.wall_seconds > 0.0
                  ? serial.wall_seconds / parallel.wall_seconds
                  : 0.0,
              serial.state_hash == parallel.state_hash ? "yes" : "NO");

  std::printf("\nExpected shape: resident model memory tracks the cohort "
              "(B/device falls ~10x per\ndecade of K); the naive "
              "per-device baseline grows linearly, so the reduction\n"
              "factor grows with K and clears 50x at K=100k.\n");
  write_json(out, rows, serial, parallel);
  return 0;
}
