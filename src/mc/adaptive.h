// Two-stage adaptive importance sampling.
//
// The pre-characterized g_{T,P} is built from structural predictions
// (correlations, lifetimes, analytical potency). A pilot run reveals where
// successes *actually* concentrate; the adaptive sampler refits the sampling
// distribution to the empirical success mass:
//
//   g2(t, c) ∝ smoothed_success_count(t-stratum, c) + floor,
//   mixed defensively with f (weights stay exact likelihood ratios, so the
//   second-stage estimate remains unbiased regardless of the pilot).
//
// Classic adaptive MC; exposed as an optional refinement on top of the
// paper's strategy (see bench_ablation).
#pragma once

#include <map>

#include "faultsim/glitch.h"
#include "mc/evaluator.h"

namespace fav::mc {

struct AdaptiveConfig {
  /// Smoothing added to every observed center's success count.
  double smoothing = 0.25;
  /// Defensive f-mixture weight (bounds importance weights by 1/epsilon).
  double defensive_mix = 0.1;
  /// Timing strata: success counts are pooled over t within a stratum
  /// (individual (t, c) counts are too sparse after a short pilot).
  int t_stratum = 10;
};

class AdaptiveImportanceSampler final : public Sampler {
 public:
  /// Builds the refit distribution from `pilot` (any strategy's result with
  /// keep_records on). Throws if the pilot contains no successes — there is
  /// nothing to adapt to, keep using the pilot sampler instead.
  AdaptiveImportanceSampler(const faultsim::AttackModel& attack,
                            const SsfResult& pilot,
                            const AdaptiveConfig& config = {});

  faultsim::FaultSample draw(Rng& rng) override;
  const std::string& name() const override { return name_; }

  /// Joint pmf over (t stratum, center) including the defensive mixture.
  double g_pmf(int t, netlist::NodeId center) const;

 private:
  int stratum_of(int t) const;

  faultsim::AttackModel attack_;
  AdaptiveConfig config_;
  std::string name_ = "adaptive";
  int strata_ = 0;

  // Per-stratum weighted center table.
  struct Stratum {
    std::vector<netlist::NodeId> centers;
    std::vector<double> weights;
    DiscreteDistribution conditional;
    std::map<netlist::NodeId, int> index;
    double total = 0;
  };
  std::vector<Stratum> strata_tables_;
  DiscreteDistribution stratum_dist_;
};

/// Adaptive refit for a glitch technique (either kind). The attack space is
/// a small finite (t, level) grid, so no stratification is needed: the refit
/// distribution puts smoothing + pilot success mass on every cell and mixes
/// defensively with the uniform f, and samples carry exact f/g weights.
/// Only pilot records of the model's kind contribute.
class AdaptiveGlitchSampler final : public Sampler {
 public:
  /// Builds the refit grid from `pilot` (a glitch run with keep_records on).
  /// Throws if the pilot contains no successes — nothing to adapt to; keep
  /// using the uniform GlitchSampler instead.
  AdaptiveGlitchSampler(const faultsim::GlitchAttackModel& model,
                        std::uint64_t target_cycle, const SsfResult& pilot,
                        const AdaptiveConfig& config = {});

  faultsim::FaultSample draw(Rng& rng) override;
  const std::string& name() const override { return name_; }

  /// Joint pmf over (t, level index) including the defensive mixture.
  double g_pmf(int t, std::size_t level_index) const;

 private:
  std::size_t cell_of(int t, std::size_t level_index) const;

  faultsim::GlitchAttackModel model_;
  AdaptiveConfig config_;
  std::string name_ = "glitch-adaptive";
  DiscreteDistribution cell_dist_;  // over the flattened (t, level) grid
};

}  // namespace fav::mc
