#include "core/trainer.hpp"

#include <limits>
#include <utility>

#include "core/fleet.hpp"

namespace hadfl::core {

HadflResult run_hadfl(const fl::SchemeContext& ctx, const HadflConfig& config) {
  FleetConfig exact;  // cohort 0: every device trains every round
  exact.extras_device_cap = std::numeric_limits<std::size_t>::max();
  FleetResult r = run_hadfl_fleet(ctx, config, exact);
  r.scheme.scheme_name = "hadfl";
  return HadflResult{std::move(r.scheme), std::move(r.extras)};
}

}  // namespace hadfl::core
