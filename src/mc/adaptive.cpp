#include "mc/adaptive.h"

#include <algorithm>

namespace fav::mc {

using faultsim::FaultSample;
using netlist::NodeId;

AdaptiveImportanceSampler::AdaptiveImportanceSampler(
    const faultsim::AttackModel& attack, const SsfResult& pilot,
    const AdaptiveConfig& config)
    : attack_(attack), config_(config) {
  attack.check_valid();
  FAV_ENSURE(config.smoothing > 0);
  FAV_ENSURE(config.defensive_mix > 0 && config.defensive_mix <= 1.0);
  FAV_ENSURE(config.t_stratum >= 1);
  FAV_ENSURE_MSG(!pilot.records.empty(),
                "adaptive sampling needs pilot records (keep_records)");
  FAV_ENSURE_MSG(pilot.successes > 0,
                "pilot found no successes — nothing to adapt to");

  strata_ = (attack.t_count() + config.t_stratum - 1) / config.t_stratum;
  strata_tables_.resize(static_cast<std::size_t>(strata_));

  // Success mass per (stratum, center), importance-corrected by the pilot's
  // own weights so the refit estimates f-mass, not pilot-g-mass.
  std::vector<std::map<NodeId, double>> mass(
      static_cast<std::size_t>(strata_));
  std::vector<double> stratum_mass(static_cast<std::size_t>(strata_), 0.0);
  for (const SampleRecord& rec : pilot.records) {
    if (!rec.success) continue;
    if (rec.sample.t < attack.t_min || rec.sample.t > attack.t_max) continue;
    const auto s = static_cast<std::size_t>(stratum_of(rec.sample.t));
    mass[s][rec.sample.center] += rec.sample.weight;
    stratum_mass[s] += rec.sample.weight;
  }

  // Build per-stratum tables: every observed-successful center gets its
  // mass; every candidate has the defensive mixture as a floor (no explicit
  // per-center floor needed — the epsilon*f component covers the support).
  std::vector<double> stratum_weights;
  for (int s = 0; s < strata_; ++s) {
    Stratum& table = strata_tables_[static_cast<std::size_t>(s)];
    for (const auto& [center, m] : mass[static_cast<std::size_t>(s)]) {
      table.index[center] = static_cast<int>(table.centers.size());
      table.centers.push_back(center);
      table.weights.push_back(m + config.smoothing);
      table.total += m + config.smoothing;
    }
    if (!table.centers.empty()) {
      table.conditional = DiscreteDistribution(table.weights);
    }
    stratum_weights.push_back(table.total);
  }
  // Ensure at least one stratum carries weight (successes guarantee it).
  stratum_dist_ = DiscreteDistribution(stratum_weights);
}

int AdaptiveImportanceSampler::stratum_of(int t) const {
  return (t - attack_.t_min) / config_.t_stratum;
}

double AdaptiveImportanceSampler::g_pmf(int t, NodeId center) const {
  const double f_tc =
      1.0 / (static_cast<double>(attack_.t_count()) *
             static_cast<double>(attack_.candidate_centers.size()));
  double weighted = 0.0;
  const auto s = static_cast<std::size_t>(stratum_of(t));
  const Stratum& table = strata_tables_[s];
  const auto it = table.index.find(center);
  if (it != table.index.end() && !table.centers.empty()) {
    // Within a stratum the refit spreads a center's mass uniformly over the
    // stratum's t values.
    const int t_lo = attack_.t_min + static_cast<int>(s) * config_.t_stratum;
    const int t_hi = std::min(attack_.t_max, t_lo + config_.t_stratum - 1);
    const double t_share = 1.0 / static_cast<double>(t_hi - t_lo + 1);
    weighted = stratum_dist_.pmf(s) *
               table.conditional.pmf(static_cast<std::size_t>(it->second)) *
               t_share;
  }
  return (1.0 - config_.defensive_mix) * weighted +
         config_.defensive_mix * f_tc;
}

FaultSample AdaptiveImportanceSampler::draw(Rng& rng) {
  FaultSample s;
  if (rng.bernoulli(config_.defensive_mix)) {
    s.t = static_cast<int>(rng.uniform_int(attack_.t_min, attack_.t_max));
    s.center = attack_.candidate_centers[rng.uniform_below(
        attack_.candidate_centers.size())];
  } else {
    const std::size_t stratum = stratum_dist_.sample(rng);
    const Stratum& table = strata_tables_[stratum];
    FAV_CHECK(!table.centers.empty());
    s.center = table.centers[table.conditional.sample(rng)];
    const int t_lo =
        attack_.t_min + static_cast<int>(stratum) * config_.t_stratum;
    const int t_hi = std::min(attack_.t_max, t_lo + config_.t_stratum - 1);
    s.t = static_cast<int>(rng.uniform_int(t_lo, t_hi));
  }
  s.radius = attack_.radii[rng.uniform_below(attack_.radii.size())];
  s.strike_frac = attack_.draw_strike_frac(rng);
  s.impact_cycles = attack_.impact_cycles;
  const double f_tc =
      1.0 / (static_cast<double>(attack_.t_count()) *
             static_cast<double>(attack_.candidate_centers.size()));
  s.weight = f_tc / g_pmf(s.t, s.center);
  return s;
}

AdaptiveGlitchSampler::AdaptiveGlitchSampler(
    const faultsim::GlitchAttackModel& model, std::uint64_t target_cycle,
    const SsfResult& pilot, const AdaptiveConfig& config)
    : model_(model), config_(config) {
  model_.check_valid(target_cycle);
  FAV_ENSURE(config.smoothing > 0);
  FAV_ENSURE(config.defensive_mix > 0 && config.defensive_mix <= 1.0);
  FAV_ENSURE_MSG(!pilot.records.empty(),
                 "adaptive sampling needs pilot records (keep_records)");
  FAV_ENSURE_MSG(pilot.successes > 0,
                 "pilot found no successes — nothing to adapt to");

  const std::size_t cells =
      static_cast<std::size_t>(model_.t_count()) * model_.levels.size();
  std::vector<double> weights(cells, config.smoothing);
  for (const SampleRecord& rec : pilot.records) {
    if (!rec.success) continue;
    if (rec.sample.technique != model_.kind) continue;
    if (rec.sample.t < model_.t_min || rec.sample.t > model_.t_max) continue;
    // Levels are drawn from the model's own grid, so exact comparison is the
    // right match (an off-grid pilot level simply contributes nothing).
    for (std::size_t d = 0; d < model_.levels.size(); ++d) {
      if (rec.sample.depth == model_.levels[d]) {
        weights[cell_of(rec.sample.t, d)] += rec.sample.weight;
        break;
      }
    }
  }
  cell_dist_ = DiscreteDistribution(weights);
}

std::size_t AdaptiveGlitchSampler::cell_of(int t,
                                           std::size_t level_index) const {
  return static_cast<std::size_t>(t - model_.t_min) * model_.levels.size() +
         level_index;
}

double AdaptiveGlitchSampler::g_pmf(int t, std::size_t level_index) const {
  return (1.0 - config_.defensive_mix) *
             cell_dist_.pmf(cell_of(t, level_index)) +
         config_.defensive_mix * model_.f_pmf();
}

FaultSample AdaptiveGlitchSampler::draw(Rng& rng) {
  FaultSample s;
  s.technique = model_.kind;
  std::size_t level_index;
  if (rng.bernoulli(config_.defensive_mix)) {
    s.t = static_cast<int>(rng.uniform_int(model_.t_min, model_.t_max));
    level_index = rng.uniform_below(model_.levels.size());
  } else {
    const std::size_t cell = cell_dist_.sample(rng);
    s.t = model_.t_min + static_cast<int>(cell / model_.levels.size());
    level_index = cell % model_.levels.size();
  }
  s.depth = model_.levels[level_index];
  s.weight = model_.f_pmf() / g_pmf(s.t, level_index);
  return s;
}

}  // namespace fav::mc
