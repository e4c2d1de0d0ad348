// The one property every sampling strategy must satisfy for the SSF
// estimator to stay unbiased: the importance weight is the exact likelihood
// ratio, so for every cell (t, c) of the attack space
//
//   E_g[ w · 1{(t, c)} ] = f(t, c)
//
// over the sampler's support. This is checked empirically for all three
// strategies (random, cone, importance) on a small attack space
// where per-cell frequencies are measurable. A sampler that can emit a
// zero-probability outcome (the old lower_bound inversion bug in
// DiscreteDistribution) dies on the weight computation or grossly violates
// the identity here.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>

#include "mc/samplers.h"
#include "soc/benchmark.h"

namespace fav::mc {
namespace {

using faultsim::AttackModel;
using netlist::NodeId;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun golden{workload, 400, 16};
  precharac::SignatureTrace signatures{soc, workload, 400};
  precharac::RegisterCharacterization charac;
  netlist::UnrolledCone cone;
  AttackModel attack;  // small support: per-cell statistics are measurable

  Context()
      : charac(golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 29;
                 return cfg;
               }()),
        cone(soc.netlist(), soc.netlist().find_or_throw("mpu_viol"), 12, 2) {
    attack.t_min = 0;
    attack.t_max = 2;
    const auto& f0 = cone.frame(0);
    for (std::size_t i = 0; i < f0.gates.size() && i < 6; ++i) {
      attack.candidate_centers.push_back(f0.gates[i]);
    }
  }
};

Context& ctx() {
  static Context c;
  return c;
}

/// Draws `kDraws` samples and checks, for every sufficiently-visited cell,
/// that the weighted indicator mean reproduces the uniform target pmf
/// f(t, c) = 1 / (t_count · centers) within 6 empirical standard errors.
/// Also checks the support mass E[w] <= 1 and per-draw sanity.
void expect_weight_invariant(Sampler& s, const AttackModel& attack,
                             std::uint64_t seed) {
  constexpr int kDraws = 60000;
  const double f_tc =
      1.0 / (attack.t_count() *
             static_cast<double>(attack.candidate_centers.size()));
  std::map<std::pair<int, NodeId>, double> w_sum, w_sq_sum;
  std::map<std::pair<int, NodeId>, int> hits;
  double total_w = 0.0;
  Rng rng(seed);
  for (int i = 0; i < kDraws; ++i) {
    const auto smp = s.draw(rng);
    ASSERT_GT(smp.weight, 0.0) << "zero/negative importance weight at draw "
                               << i << " (t=" << smp.t << ")";
    ASSERT_GE(smp.t, attack.t_min);
    ASSERT_LE(smp.t, attack.t_max);
    const auto key = std::make_pair(smp.t, smp.center);
    w_sum[key] += smp.weight;
    w_sq_sum[key] += smp.weight * smp.weight;
    ++hits[key];
    total_w += smp.weight;
  }
  int checked = 0;
  for (const auto& [key, sum] : w_sum) {
    if (hits[key] < 200) continue;  // too rare for a meaningful estimate
    const double est = sum / kDraws;
    const double var =
        std::max(0.0, w_sq_sum[key] / kDraws - est * est) / kDraws;
    const double tol = 6.0 * std::sqrt(var) + 1e-4;
    EXPECT_NEAR(est, f_tc, tol)
        << "t=" << key.first << " center=" << key.second << " (" << hits[key]
        << " hits): E[w·1] must equal f(t,c)";
    ++checked;
  }
  EXPECT_GT(checked, 0) << "support too thin to test anything";
  // E_g[w] = f-mass of the support: a proper sub-probability of f.
  EXPECT_LE(total_w / kDraws, 1.0 + 0.05);
  EXPECT_GT(total_w / kDraws, 0.0);
}

TEST(SamplerInvariant, RandomSampler) {
  RandomSampler s(ctx().attack);
  expect_weight_invariant(s, ctx().attack, 101);
}

TEST(SamplerInvariant, ConeSampler) {
  ConeSampler s(ctx().attack, ctx().cone, ctx().placement);
  expect_weight_invariant(s, ctx().attack, 102);
}

TEST(SamplerInvariant, ImportanceSampler) {
  precharac::SamplingModel model(ctx().soc, ctx().placement, ctx().cone,
                                 ctx().signatures, ctx().charac, ctx().attack);
  ImportanceSampler s(model);
  expect_weight_invariant(s, ctx().attack, 103);
}

}  // namespace
}  // namespace fav::mc
