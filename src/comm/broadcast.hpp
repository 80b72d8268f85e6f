// Non-blocking broadcast of the aggregated model to unselected devices
// (paper §III-D: "a random device in the partial synchronization topology
// transmits the latest model parameters to the unselected K - N_p devices
// in a non-blocking manner").
#pragma once

#include <vector>

#include "comm/transport.hpp"

namespace hadfl::comm {

struct BroadcastResult {
  std::vector<DeviceId> delivered;   ///< receivers that got the payload
  std::vector<DeviceId> unreachable; ///< receivers that were down
  SimTime last_arrival = 0.0;
};

/// Pushes `bytes` from `src` to each destination. The sender's clock is not
/// advanced (hand-off to the NIC); each reachable destination is advanced
/// to its arrival time. Destinations that are down are reported, not fatal.
/// The O(dsts) per-receiver work (link timing, liveness, clock advancement)
/// is spread over `threads` via SimTransport::send_fanout, with results
/// bit-identical at any thread count.
BroadcastResult broadcast_nonblocking(SimTransport& transport, DeviceId src,
                                      const std::vector<DeviceId>& dsts,
                                      std::size_t bytes,
                                      std::size_t threads = 1);

}  // namespace hadfl::comm
