#include "comm/failure_detector.hpp"

namespace hadfl::comm {

namespace {

/// §III-D on virtual time: liveness comes from the fault injector, and each
/// step of the protocol advances the acting device's clock.
struct SimRepairProbe {
  SimTransport& transport;
  const RingRepairConfig& config;

  bool suspect(DeviceId member, DeviceId observer) const {
    const sim::Cluster& cluster = transport.cluster();
    return !cluster.faults().alive(member, cluster.time(observer));
  }

  bool handshake(DeviceId downstream, DeviceId member) {
    transport.cluster().advance(downstream, config.wait_before_handshake);
    return transport.handshake(downstream, member, config.handshake_timeout);
  }

  void warn(DeviceId /*dead*/, DeviceId upstream, DeviceId downstream) {
    if (upstream == downstream) return;
    sim::Cluster& cluster = transport.cluster();
    cluster.advance(downstream, transport.network().latency);
    cluster.advance_to(upstream, cluster.time(downstream));
  }
};

}  // namespace

RingRepairResult repair_ring(SimTransport& transport,
                             const std::vector<DeviceId>& ring,
                             const RingRepairConfig& config) {
  SimRepairProbe probe{transport, config};
  return run_ring_repair(ring, probe);
}

}  // namespace hadfl::comm
