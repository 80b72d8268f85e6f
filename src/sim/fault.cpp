#include "sim/fault.hpp"

#include "common/error.hpp"

namespace hadfl::sim {

void FaultInjector::schedule(FaultEvent event) {
  HADFL_CHECK_ARG(event.down_at >= 0.0, "fault time must be non-negative");
  HADFL_CHECK_ARG(event.up_at > event.down_at,
                  "fault recovery must come after the failure");
  if (event.device >= first_event_.size()) {
    first_event_.resize(event.device + 1, kNoEvent);
  }
  // Prepend to the device's chain: the queries ask whether ANY event
  // covers a time, so the walk order does not matter.
  const auto index = static_cast<std::uint32_t>(events_.size());
  next_event_.push_back(first_event_[event.device]);
  first_event_[event.device] = index;
  events_.push_back(event);
}

void FaultInjector::schedule_disconnect(DeviceId device, SimTime down_at) {
  schedule(FaultEvent{device, down_at,
                      std::numeric_limits<SimTime>::infinity()});
}

bool FaultInjector::alive(DeviceId device, SimTime t) const {
  for (std::uint32_t i = first_event(device); i != kNoEvent;
       i = next_event_[i]) {
    const FaultEvent& e = events_[i];
    if (t >= e.down_at && t < e.up_at) return false;
  }
  return true;
}

void FaultInjector::schedule_drift(DriftEvent event) {
  HADFL_CHECK_ARG(event.factor > 0.0, "drift factor must be positive");
  if (event.kind == DriftKind::kRamp) {
    HADFL_CHECK_ARG(event.ramp_rounds > 0, "drift ramp needs >= 1 round");
  }
  if (event.kind == DriftKind::kSquare) {
    HADFL_CHECK_ARG(event.period > 0, "drift period must be positive");
    HADFL_CHECK_ARG(event.duty <= event.period,
                    "drift duty cannot exceed the period");
  }
  drift_by_device_[event.device].push_back(
      static_cast<std::uint32_t>(drift_.size()));
  drift_.push_back(event);
}

double FaultInjector::drift_multiplier(DeviceId device,
                                       std::size_t round) const {
  const auto it = drift_by_device_.find(device);
  if (it == drift_by_device_.end()) return 1.0;
  double mult = 1.0;
  for (const std::uint32_t i : it->second) {
    const DriftEvent& e = drift_[i];
    if (round < e.from_round) continue;
    const std::size_t since = round - e.from_round;
    switch (e.kind) {
      case DriftKind::kStep:
        mult *= e.factor;
        break;
      case DriftKind::kRamp: {
        const double progress =
            since + 1 >= e.ramp_rounds
                ? 1.0
                : static_cast<double>(since + 1) /
                      static_cast<double>(e.ramp_rounds);
        mult *= 1.0 + (e.factor - 1.0) * progress;
        break;
      }
      case DriftKind::kSquare:
        if (since % e.period < e.duty) mult *= e.factor;
        break;
    }
  }
  return mult;
}

bool FaultInjector::fails_within(DeviceId device, SimTime t0, SimTime t1) const {
  for (std::uint32_t i = first_event(device); i != kNoEvent;
       i = next_event_[i]) {
    const FaultEvent& e = events_[i];
    if (e.down_at <= t1 && t0 < e.up_at) return true;
  }
  return false;
}

}  // namespace hadfl::sim
