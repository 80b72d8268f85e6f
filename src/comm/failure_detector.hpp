// Fault-tolerant ring repair (paper §III-D).
//
// The protocol, per the paper's walkthrough (Fig. 2b): device `d`'s
// upstream neighbour in the directed ring goes silent during model
// synchronization. After a pre-specified waiting time, `d` sends a
// handshake to the silent device to confirm its status; on confirmation of
// death it issues a warning to the dead device's own upstream, which then
// bypasses the dead device and communicates with `d` directly.
//
// `run_ring_repair` is that loop, written once. Each backend supplies a
// probe for liveness, waiting, handshakes and warnings: `comm::repair_ring`
// (below) runs it on the simulator's virtual clocks, `rt::repair_ring`
// (rt/failure_detector.hpp) on the wall clock against real endpoints.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "comm/transport.hpp"

namespace hadfl::comm {

/// §III-D timing. The simulator reads it in virtual seconds, the rt and net
/// backends in wall seconds.
struct RingRepairConfig {
  SimTime wait_before_handshake = 0.05;  ///< "pre-specified waiting time"
  SimTime handshake_timeout = 0.01;
};

struct RingRepairResult {
  std::vector<DeviceId> ring;     ///< surviving members in ring order
  std::vector<DeviceId> removed;  ///< bypassed (dead) members
  std::size_t repairs = 0;        ///< number of bypass operations performed
};

/// The wait → handshake → warn-upstream → bypass loop over `ring`. Data
/// flows member → downstream, so the downstream neighbour is the one who
/// notices a silent member. `probe` supplies the backend:
///
///  * `bool suspect(DeviceId member, DeviceId observer)` — `observer` sees
///    `member` as possibly dead (`observer == member` for a lone survivor);
///  * `bool handshake(DeviceId downstream, DeviceId member)` — the
///    downstream waits the pre-specified time, then probes `member`; true
///    when it answered (a transient: the member stays);
///  * `void warn(DeviceId dead, DeviceId upstream, DeviceId downstream)` —
///    the downstream warns `upstream` to bypass `dead` and feed it directly
///    (`upstream == downstream` in a two-member ring: nobody to warn).
///
/// Iterates until stable, so runs of consecutive dead members are chained
/// out one by one. Returns the repaired ring (empty only when every member
/// is dead).
template <class Probe>
RingRepairResult run_ring_repair(const std::vector<DeviceId>& ring,
                                 Probe& probe) {
  HADFL_CHECK_ARG(!ring.empty(), "repair_ring on empty ring");
  RingRepairResult result;
  result.ring = ring;

  // Bypassing one member changes the downstream relationships, and several
  // members may have died, so rescan after every bypass.
  bool changed = true;
  while (changed && result.ring.size() > 1) {
    changed = false;
    const std::size_t n = result.ring.size();
    for (std::size_t i = 0; i < n; ++i) {
      const DeviceId candidate = result.ring[i];
      const DeviceId downstream = result.ring[(i + 1) % n];
      if (downstream == candidate) break;
      if (!probe.suspect(candidate, downstream)) continue;
      if (probe.handshake(downstream, candidate)) continue;
      const DeviceId upstream = result.ring[(i + n - 1) % n];
      probe.warn(candidate, upstream, downstream);
      HADFL_INFO("ring repair: dev" << candidate << " bypassed (upstream dev"
                                    << upstream << " -> dev" << downstream
                                    << ")");
      result.removed.push_back(candidate);
      result.ring.erase(result.ring.begin() + static_cast<std::ptrdiff_t>(i));
      ++result.repairs;
      changed = true;
      break;
    }
  }

  // Single survivor that is itself dead: report an empty ring.
  if (result.ring.size() == 1 &&
      probe.suspect(result.ring[0], result.ring[0])) {
    result.removed.push_back(result.ring[0]);
    result.ring.clear();
  }
  return result;
}

/// Runs the §III-D loop on the simulator: a member is suspect when the
/// fault injector has it down at the observer's clock. The downstream
/// neighbour pays the waiting time and the handshake; the warning message
/// costs one latency on the upstream link.
RingRepairResult repair_ring(SimTransport& transport,
                             const std::vector<DeviceId>& ring,
                             const RingRepairConfig& config = {});

}  // namespace hadfl::comm
