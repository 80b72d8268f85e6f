#include "comm/transport.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace hadfl::comm {

std::size_t VolumeCounters::total_sent() const {
  return std::accumulate(sent.begin(), sent.end(), std::size_t{0});
}

std::size_t VolumeCounters::total_received() const {
  return std::accumulate(received.begin(), received.end(), std::size_t{0});
}

SimTransport::SimTransport(sim::Cluster& cluster, sim::NetworkModel network)
    : cluster_(&cluster), network_(network) {
  volume_.sent.assign(cluster.size(), 0);
  volume_.received.assign(cluster.size(), 0);
}

void SimTransport::check_device(DeviceId id) const {
  HADFL_CHECK_ARG(id < cluster_->size(), "device id " << id << " out of range");
}

SimTime SimTransport::link_time(DeviceId src, DeviceId dst,
                                std::size_t bytes) const {
  check_device(src);
  check_device(dst);
  const double scale = std::min(cluster_->bandwidth_scale(src),
                                cluster_->bandwidth_scale(dst));
  return network_.latency +
         static_cast<double>(bytes) / (network_.bandwidth * scale);
}

SimTime SimTransport::send(DeviceId src, DeviceId dst, std::size_t bytes) {
  check_device(src);
  check_device(dst);
  HADFL_CHECK_ARG(src != dst, "send to self");
  const SimTime start = std::max(cluster_->time(src), cluster_->time(dst));
  if (!cluster_->faults().alive(src, start)) {
    throw CommError("send: source device " + std::to_string(src) +
                    " is down");
  }
  if (!cluster_->faults().alive(dst, start)) {
    throw CommError("send: destination device " + std::to_string(dst) +
                    " is down");
  }
  const SimTime done = start + link_time(src, dst, bytes);
  cluster_->advance_to(src, done);
  cluster_->advance_to(dst, done);
  volume_.sent[src] += bytes;
  volume_.received[dst] += bytes;
  return done;
}

SimTime SimTransport::send_nonblocking(DeviceId src, DeviceId dst,
                                       std::size_t bytes) {
  check_device(src);
  check_device(dst);
  HADFL_CHECK_ARG(src != dst, "send to self");
  const SimTime depart = cluster_->time(src);
  if (!cluster_->faults().alive(src, depart)) {
    throw CommError("send_nonblocking: source device " + std::to_string(src) +
                    " is down");
  }
  volume_.sent[src] += bytes;
  const SimTime arrival = depart + link_time(src, dst, bytes);
  if (!cluster_->faults().alive(dst, arrival)) {
    throw CommError("send_nonblocking: destination device " +
                    std::to_string(dst) + " is down");
  }
  cluster_->advance_to(dst, arrival);
  volume_.received[dst] += bytes;
  return arrival;
}

SimTransport::FanoutResult SimTransport::send_fanout(
    DeviceId src, const std::vector<DeviceId>& dsts, std::size_t bytes,
    std::size_t threads) {
  check_device(src);
  const SimTime depart = cluster_->time(src);
  if (!cluster_->faults().alive(src, depart)) {
    throw CommError("send_nonblocking: source device " + std::to_string(src) +
                    " is down");
  }
  // Fixed grain keeps the range grid (and thus the merged result) a pure
  // function of dsts.size(), never of the thread count.
  constexpr std::size_t kFanoutGrain = std::size_t{1} << 14;
  const std::size_t n = dsts.size();
  const std::size_t ranges = (n + kFanoutGrain - 1) / kFanoutGrain;
  std::vector<std::vector<DeviceId>> delivered(ranges);
  std::vector<std::vector<DeviceId>> unreachable(ranges);
  std::vector<SimTime> last_arrivals(ranges, 0.0);
  const sim::FaultInjector& faults = cluster_->faults();
  parallel_chunks(
      n, kFanoutGrain, threads, [&](std::size_t begin, std::size_t end) {
        // The range's partials stay local until the end: neighbouring
        // slots of the shared vectors share cache lines across threads.
        std::vector<DeviceId> range_delivered;
        std::vector<DeviceId> range_unreachable;
        SimTime range_last = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          const DeviceId dst = dsts[i];
          check_device(dst);
          HADFL_CHECK_ARG(dst != src, "broadcast destination equals source");
          const SimTime arrival = depart + link_time(src, dst, bytes);
          if (!faults.alive(dst, arrival)) {
            range_unreachable.push_back(dst);
            continue;
          }
          // Distinct destinations ⇒ disjoint clock slots and volume
          // counters; the global max clock is folded back in afterwards.
          cluster_->advance_to_unsynced(dst, arrival);
          volume_.received[dst] += bytes;
          range_delivered.push_back(dst);
          range_last = std::max(range_last, arrival);
        }
        const std::size_t r = begin / kFanoutGrain;
        delivered[r] = std::move(range_delivered);
        unreachable[r] = std::move(range_unreachable);
        last_arrivals[r] = range_last;
      });
  // A dead receiver still consumes the send: volume counts at the sender
  // for every destination, exactly as the serial per-dst loop accumulates.
  volume_.sent[src] += bytes * n;
  FanoutResult out;
  for (std::size_t r = 0; r < ranges; ++r) {
    out.delivered.insert(out.delivered.end(), delivered[r].begin(),
                         delivered[r].end());
    out.unreachable.insert(out.unreachable.end(), unreachable[r].begin(),
                           unreachable[r].end());
    out.last_arrival = std::max(out.last_arrival, last_arrivals[r]);
  }
  cluster_->note_clock(out.last_arrival);
  return out;
}

bool SimTransport::handshake(DeviceId src, DeviceId dst, SimTime timeout) {
  check_device(src);
  check_device(dst);
  HADFL_CHECK_ARG(timeout >= 0.0, "handshake timeout must be non-negative");
  const SimTime start = cluster_->time(src);
  const SimTime ping_arrival = start + network_.latency;
  if (cluster_->faults().alive(dst, ping_arrival)) {
    cluster_->advance(src, 2.0 * network_.latency);
    return true;
  }
  HADFL_DEBUG("handshake from dev" << src << " to dev" << dst
                                   << " timed out after " << timeout << "s");
  cluster_->advance(src, timeout);
  return false;
}

void SimTransport::account(DeviceId src, DeviceId dst, std::size_t bytes) {
  check_device(src);
  check_device(dst);
  volume_.sent[src] += bytes;
  volume_.received[dst] += bytes;
}

void SimTransport::account_external(DeviceId device, std::size_t sent_bytes,
                                    std::size_t received_bytes) {
  check_device(device);
  volume_.sent[device] += sent_bytes;
  volume_.received[device] += received_bytes;
}

void SimTransport::reset_volume() {
  volume_.sent.assign(cluster_->size(), 0);
  volume_.received.assign(cluster_->size(), 0);
}

}  // namespace hadfl::comm
