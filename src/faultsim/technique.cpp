#include "faultsim/technique.h"

#include <bit>
#include <type_traits>

namespace fav::faultsim {

std::span<const netlist::NodeId> SpotTable::struck(
    const layout::Placement& placement, netlist::NodeId center, double radius) {
  if (placement_ != &placement) {
    by_center_.clear();
    placement_ = &placement;
  }
  const auto radius_bits = std::bit_cast<std::uint64_t>(radius);
  if (center < by_center_.size()) {
    for (const Spot& spot : by_center_[center]) {
      if (spot.radius_bits == radius_bits) return spot.nodes;
    }
  }
  // A miss: nodes_within rejects a bad query before the table grows. Moving
  // a Spot must not copy its list, or growth would break earlier views.
  static_assert(std::is_nothrow_move_constructible_v<Spot>);
  Spot spot{radius_bits, placement.nodes_within(center, radius)};
  if (center >= by_center_.size()) by_center_.resize(center + 1);
  ++computed_;
  return by_center_[center].emplace_back(std::move(spot)).nodes;
}

void AttackTechnique::check_common(const FaultSample& sample) const {
  FAV_ENSURE_MSG(sample.technique == kind(),
                 "sample carries '" << technique_kind_name(sample.technique)
                                    << "' parameters but the engine evaluates "
                                    << "the '" << name() << "' technique");
  FAV_ENSURE_MSG(sample.t >= 0, "negative timing distance not supported");
  FAV_ENSURE_MSG(sample.impact_cycles >= 1, "impact_cycles must be >= 1");
}

void AttackTechnique::check_enumeration_range(std::uint64_t begin,
                                              std::uint64_t end) const {
  const std::uint64_t space = space_size();
  FAV_ENSURE_MSG(begin <= end, "bad enumeration range");
  FAV_ENSURE_MSG(end <= space, "enumeration range [" << begin << ", " << end
                                                     << ") exceeds the fault "
                                                     << "space of " << space
                                                     << " points");
}

void AttackTechnique::flip_set(const netlist::LogicSimulator& sim,
                               TechniqueScratch& scratch,
                               const FaultSample& sample,
                               std::vector<netlist::NodeId>& flipped) const {
  netlist::WordSimulator words(sim.netlist());
  words.broadcast_from(sim);
  std::vector<std::vector<netlist::NodeId>> lanes;
  flip_set_batch(words, scratch, {&sample, 1}, lanes);
  flipped = std::move(lanes[0]);
}

RadiationTechnique::RadiationTechnique(const layout::Placement& placement,
                                       const InjectionSimulator& injector)
    : placement_(&placement), injector_(&injector) {}

std::string RadiationTechnique::parameter_space() const {
  return "p = [center, radius, strike_frac] (radiated spot)";
}

void RadiationTechnique::check_sample(const FaultSample& sample) const {
  check_common(sample);
  FAV_ENSURE_MSG(sample.radius >= 0.0, "negative spot radius");
  FAV_ENSURE_MSG(sample.strike_frac >= 0.0 && sample.strike_frac < 1.0,
                 "strike_frac must be in [0, 1)");
}

void RadiationTechnique::flip_set_batch(
    const netlist::WordSimulator& sim, TechniqueScratch& scratch,
    std::span<const FaultSample> samples,
    std::vector<std::vector<netlist::NodeId>>& flipped) const {
  const std::size_t lanes = samples.size();
  scratch.struck_lanes.resize(lanes);
  scratch.strike_times.resize(lanes);
  const double period = injector_->timing().clock_period();
  for (std::size_t l = 0; l < lanes; ++l) {
    scratch.struck_lanes[l] = scratch.spots.struck(
        *placement_, samples[l].center, samples[l].radius);
    scratch.strike_times[l] = samples[l].strike_frac * period;
  }
  injector_->inject_batch(sim, scratch.struck_lanes, scratch.strike_times,
                          scratch.batch, flipped);
}

void RadiationTechnique::bind_space(const AttackModel& model) {
  model.check_valid();
  space_ = model;
  if (space_.strike_fracs.empty()) space_.strike_fracs = {0.0};
  has_space_ = true;
}

std::uint64_t RadiationTechnique::space_size() const {
  if (!has_space_) return 0;
  return static_cast<std::uint64_t>(space_.t_count()) *
         space_.candidate_centers.size() * space_.radii.size() *
         space_.strike_fracs.size();
}

void RadiationTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                   std::vector<FaultSample>& out) const {
  check_enumeration_range(begin, end);
  out.clear();
  out.reserve(end - begin);
  // t-major, then center, radius, strike — the index decomposition below is
  // the stable enumeration contract; changing it invalidates journals.
  const std::uint64_t strikes = space_.strike_fracs.size();
  const std::uint64_t per_radius = strikes;
  const std::uint64_t per_center = space_.radii.size() * per_radius;
  const std::uint64_t per_t = space_.candidate_centers.size() * per_center;
  for (std::uint64_t i = begin; i < end; ++i) {
    FaultSample s;
    s.technique = TechniqueKind::kRadiation;
    s.t = space_.t_min + static_cast<int>(i / per_t);
    const std::uint64_t rem = i % per_t;
    s.center = space_.candidate_centers[rem / per_center];
    const std::uint64_t rem2 = rem % per_center;
    s.radius = space_.radii[rem2 / per_radius];
    s.strike_frac = space_.strike_fracs[rem2 % per_radius];
    s.impact_cycles = space_.impact_cycles;
    s.weight = 1.0;
    out.push_back(s);
  }
}

}  // namespace fav::faultsim
