#include "comm/broadcast.hpp"

#include <utility>

#include "common/logging.hpp"

namespace hadfl::comm {

BroadcastResult broadcast_nonblocking(SimTransport& transport, DeviceId src,
                                      const std::vector<DeviceId>& dsts,
                                      std::size_t bytes, std::size_t threads) {
  SimTransport::FanoutResult fan =
      transport.send_fanout(src, dsts, bytes, threads);
  for (const DeviceId dst : fan.unreachable) {
    HADFL_WARN("broadcast: device " << dst << " unreachable, skipping");
  }
  BroadcastResult result;
  result.delivered = std::move(fan.delivered);
  result.unreachable = std::move(fan.unreachable);
  result.last_arrival = fan.last_arrival;
  return result;
}

}  // namespace hadfl::comm
