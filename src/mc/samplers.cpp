#include "mc/samplers.h"

#include <algorithm>
#include <unordered_set>

namespace fav::mc {

using faultsim::FaultSample;
using netlist::NodeId;

RandomSampler::RandomSampler(const faultsim::AttackModel& attack)
    : attack_(&attack) {
  attack.check_valid();
}

FaultSample RandomSampler::draw(Rng& rng) { return attack_->sample(rng); }

ConeSampler::ConeSampler(const faultsim::AttackModel& attack,
                         const netlist::UnrolledCone& cone,
                         const layout::Placement& placement)
    : attack_(&attack) {
  attack.check_valid();
  const double max_radius =
      *std::max_element(attack.radii.begin(), attack.radii.end());
  std::vector<std::vector<NodeId>> spots(attack.candidate_centers.size());
  for (std::size_t i = 0; i < attack.candidate_centers.size(); ++i) {
    placement.nodes_within(attack.candidate_centers[i], max_radius, spots[i]);
  }
  for (int t = attack.t_min; t <= attack.t_max; ++t) {
    Frame fr;
    fr.t = t;
    for (std::size_t i = 0; i < attack.candidate_centers.size(); ++i) {
      bool touches = false;
      for (const NodeId g : spots[i]) {
        // Gates align with frame t, direct register upsets with frame t-1.
        if (cone.contains(t, g) || (t >= 1 && cone.contains(t - 1, g))) {
          touches = true;
          break;
        }
      }
      if (touches) fr.centers.push_back(attack.candidate_centers[i]);
    }
    if (!fr.centers.empty()) frames_.push_back(std::move(fr));
  }
  FAV_ENSURE_MSG(!frames_.empty(),
                "no candidate spot touches the responding signal's cones");
}

FaultSample ConeSampler::draw(Rng& rng) {
  // g: uniform over non-empty frames, then uniform over that frame's
  // in-cone candidates, radius uniform (same as f).
  const Frame& fr = frames_[rng.uniform_below(frames_.size())];
  FaultSample s;
  s.t = fr.t;
  s.center = fr.centers[rng.uniform_below(fr.centers.size())];
  s.radius = attack_->radii[rng.uniform_below(attack_->radii.size())];
  s.strike_frac = attack_->draw_strike_frac(rng);
  s.impact_cycles = attack_->impact_cycles;
  const double f_tc = 1.0 / (static_cast<double>(attack_->t_count()) *
                             static_cast<double>(attack_->candidate_centers.size()));
  const double g_tc = 1.0 / (static_cast<double>(frames_.size()) *
                             static_cast<double>(fr.centers.size()));
  s.weight = f_tc / g_tc;
  return s;
}

GlitchSampler::GlitchSampler(const faultsim::GlitchAttackModel& model,
                             std::uint64_t target_cycle)
    : model_(model),
      name_(model.kind == faultsim::TechniqueKind::kVoltageGlitch
                ? "voltage-uniform"
                : "glitch-uniform") {
  model_.check_valid(target_cycle);
}

FaultSample GlitchSampler::draw(Rng& rng) {
  FaultSample s;
  s.technique = model_.kind;
  s.t = rng.uniform_int(model_.t_min, model_.t_max);
  s.depth = model_.levels[rng.uniform_below(model_.levels.size())];
  s.weight = 1.0;  // g == f: the draw is the holistic model itself
  return s;
}

ImportanceSampler::ImportanceSampler(const precharac::SamplingModel& model)
    : model_(&model) {}

FaultSample ImportanceSampler::draw(Rng& rng) { return model_->sample(rng); }

}  // namespace fav::mc
