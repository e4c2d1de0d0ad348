#include "faultsim/glitch.h"

#include <algorithm>

namespace fav::faultsim {

using netlist::NodeId;

namespace {

/// "depth" (clock glitch) or "droop" (voltage glitch) in diagnostics.
const char* glitch_level_name(TechniqueKind kind) {
  return kind == TechniqueKind::kClockGlitch ? "depth" : "droop";
}

}  // namespace

bool is_glitch_kind(TechniqueKind kind) {
  return kind == TechniqueKind::kClockGlitch ||
         kind == TechniqueKind::kVoltageGlitch;
}

void check_glitch_level(TechniqueKind kind, double level) {
  FAV_ENSURE_MSG(level > 0.0 && level < 1.0,
                 glitch_level_name(kind) << " must be in (0, 1)");
}

bool misses_setup(TechniqueKind kind, double arrival, double setup,
                  double period, double level) {
  if (kind == TechniqueKind::kClockGlitch) {
    return arrival + setup > period * level;  // level = glitch depth
  }
  return arrival / (1.0 - level) + setup > period;  // level = supply droop
}

GlitchSimulator::GlitchSimulator(const netlist::Netlist& nl,
                                 const TimingModel& timing_model)
    : timing_(nl, timing_model) {
  for (const NodeId dff : nl.dffs()) {
    FAV_ENSURE_MSG(!nl.node(dff).fanins.empty(),
                   "DFF '" << nl.node(dff).name << "' has no D input");
    critical_d_ =
        std::max(critical_d_, timing_.arrival(nl.node(dff).fanins[0]));
  }
}

GlitchAttackModel::GlitchAttackModel(TechniqueKind kind) : kind(kind) {
  if (kind == TechniqueKind::kVoltageGlitch) {
    levels = {0.15, 0.25, 0.35, 0.45};
  } else {
    levels = {0.55, 0.65, 0.75, 0.85};
  }
}

void GlitchAttackModel::check_valid() const {
  FAV_ENSURE_MSG(is_glitch_kind(kind), "not a glitch technique");
  FAV_ENSURE_MSG(t_min >= 0 && t_max >= t_min, "bad timing range");
  FAV_ENSURE_MSG(!levels.empty(),
                 "no " << glitch_level_name(kind) << " levels");
  for (const double level : levels) check_glitch_level(kind, level);
}

void GlitchAttackModel::check_valid(std::uint64_t target_cycle) const {
  check_valid();
  FAV_ENSURE_MSG(static_cast<std::uint64_t>(t_max) <= target_cycle,
                 "glitch timing range [" << t_min << ", " << t_max
                                         << "] exceeds the target cycle "
                                         << target_cycle);
}

GlitchTechnique::GlitchTechnique(const GlitchSimulator& glitch,
                                 TechniqueKind kind)
    : glitch_(&glitch), kind_(kind), space_(kind) {
  FAV_ENSURE_MSG(is_glitch_kind(kind), "not a glitch technique");
}

std::string GlitchTechnique::parameter_space() const {
  return kind_ == TechniqueKind::kClockGlitch
             ? "p = [depth] (glitched-period fraction)"
             : "p = [droop] (supply-droop severity)";
}

void GlitchTechnique::check_sample(const FaultSample& sample) const {
  check_common(sample);
  check_glitch_level(kind_, sample.depth);
}

void GlitchTechnique::flip_set_batch(
    const netlist::WordSimulator& sim, TechniqueScratch& scratch,
    std::span<const FaultSample> samples,
    std::vector<std::vector<NodeId>>& flipped) const {
  (void)scratch;
  const std::size_t lanes = samples.size();
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  for (const FaultSample& s : samples) check_glitch_level(kind_, s.depth);
  flipped.resize(lanes);
  for (auto& f : flipped) f.clear();
  const auto& timing = glitch_->timing();
  const double period = timing.clock_period();
  const double setup = timing.model().setup_time;
  const auto& nl = sim.netlist();
  for (const NodeId dff : nl.dffs()) {
    const NodeId d = nl.node(dff).fanins[0];
    // A register flips only where its new D differs from the held Q; skip
    // the per-lane timing test entirely when no lane sees a difference.
    const std::uint64_t diff = sim.word(d) ^ sim.word(dff);
    if (diff == 0) continue;
    const double arrival = timing.arrival(d);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (((diff >> l) & 1u) == 0) continue;
      if (misses_setup(kind_, arrival, setup, period, samples[l].depth)) {
        flipped[l].push_back(dff);
      }
    }
  }
  // dffs() is ascending, so each lane's list is already sorted and unique.
}

void GlitchTechnique::bind_space(const GlitchAttackModel& model) {
  model.check_valid();
  FAV_ENSURE_MSG(model.kind == kind_,
                 "a " << technique_kind_name(model.kind)
                      << " model cannot bind the " << name() << " space");
  space_ = model;
  has_space_ = true;
}

std::uint64_t GlitchTechnique::space_size() const {
  if (!has_space_) return 0;
  return static_cast<std::uint64_t>(space_.t_count()) * space_.levels.size();
}

void GlitchTechnique::enumerate(std::uint64_t begin, std::uint64_t end,
                                std::vector<FaultSample>& out) const {
  check_enumeration_range(begin, end);
  out.clear();
  out.reserve(end - begin);
  const std::uint64_t levels = space_.levels.size();
  for (std::uint64_t i = begin; i < end; ++i) {
    FaultSample s;
    s.technique = kind_;
    s.t = space_.t_min + static_cast<int>(i / levels);
    s.depth = space_.levels[i % levels];
    s.weight = 1.0;
    out.push_back(s);
  }
}

}  // namespace fav::faultsim
