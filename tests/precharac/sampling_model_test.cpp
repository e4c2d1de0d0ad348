#include "precharac/sampling_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "soc/benchmark.h"
#include "util/check.h"

namespace fav::precharac {
namespace {

using faultsim::AttackModel;
using netlist::NodeId;
using netlist::UnrolledCone;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun golden{workload, 400, 16};
  SignatureTrace signatures{soc, workload, 400};
  RegisterCharacterization charac;
  UnrolledCone cone;
  AttackModel attack;

  Context()
      : charac(golden,
               [] {
                 CharacterizationConfig cfg;
                 cfg.stride = 29;
                 return cfg;
               }()),
        cone(soc.netlist(), soc.netlist().find_or_throw("mpu_viol"), 12, 2) {
    attack.t_min = 0;
    attack.t_max = 9;
    attack.candidate_centers = placement.placed_nodes();
  }
};

Context& ctx() {
  static Context c;
  return c;
}

SamplingModel& model() {
  static SamplingModel m(ctx().soc, ctx().placement, ctx().cone,
                         ctx().signatures, ctx().charac, ctx().attack);
  return m;
}

TEST(SamplingModel, GtIsAProperDistribution) {
  const auto& gt = model().g_t();
  EXPECT_EQ(gt.size(), static_cast<std::size_t>(ctx().attack.t_count()));
  double total = 0;
  for (std::size_t i = 0; i < gt.size(); ++i) total += gt.pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(SamplingModel, WeightsAreBoundedByFormula) {
  const auto& m = model();
  const double alpha = m.params().alpha;
  const double gamma = m.params().memory_boost;
  for (int t : {0, 3, 7}) {
    for (NodeId g = 0; g < ctx().soc.netlist().node_count(); g += 71) {
      const double w = m.center_weight(t, g);
      if (w == 0.0) continue;
      EXPECT_GE(w, 1.0) << "t=" << t << " g=" << g;
      EXPECT_LE(w, 1.0 + alpha + gamma * m.memory_score(g))
          << "t=" << t << " g=" << g;
    }
  }
}

TEST(SamplingModel, MemoryHitsBoostWeights) {
  // With a large gamma, a center whose spot covers memory-type cone
  // registers must outweigh every plain in-cone center at t >= 1.
  SamplingParams params;
  params.memory_boost = 50.0;
  SamplingModel m(ctx().soc, ctx().placement, ctx().cone, ctx().signatures,
                  ctx().charac, ctx().attack, params);
  NodeId boosted = netlist::kInvalidNode;
  NodeId plain = netlist::kInvalidNode;
  for (const NodeId c : ctx().attack.candidate_centers) {
    if (m.memory_score(c) > 0 && boosted == netlist::kInvalidNode) boosted = c;
    if (m.memory_score(c) == 0.0 && m.transit_count(c) == 0 &&
        m.center_weight(3, c) > 0 && plain == netlist::kInvalidNode) {
      plain = c;
    }
  }
  ASSERT_NE(boosted, netlist::kInvalidNode);
  ASSERT_NE(plain, netlist::kInvalidNode);
  EXPECT_GT(m.center_weight(3, boosted), m.center_weight(3, plain));
  // At t = 0 the memory boost is off (too late to matter).
  EXPECT_LT(m.center_weight(0, boosted), 1.0 + m.params().alpha + 1e-9);
}

TEST(SamplingModel, SpotSupportCoversOffConeNeighbours) {
  // Any center with memory hits has positive weight at t >= 1 even if the
  // center cell itself is not a cone member — the spot still upsets cone
  // registers, so excluding it would bias the estimator.
  const auto& m = model();
  int covered = 0;
  for (const NodeId c : ctx().attack.candidate_centers) {
    if (m.memory_score(c) == 0) continue;
    EXPECT_GT(m.center_weight(1, c), 0.0) << c;
    ++covered;
  }
  EXPECT_GT(covered, 0);
}

TEST(SamplingModel, LifetimeOfGateIsMaxOverFanoutRegisters) {
  const auto& m = model();
  const auto& map = soc::SocNetlist::reg_map();
  const NodeId rs = ctx().soc.netlist().find_or_throw("mpu_viol");
  const int sticky_bit = map.field(map.field_index("viol_sticky")).offset;
  const NodeId sticky_dff = ctx().soc.dff_for_bit(sticky_bit);
  EXPECT_GE(m.lifetime_l(rs), m.lifetime_l(sticky_dff));
}

TEST(SamplingModel, PmfMatchesSampledFrequencies) {
  auto& m = model();
  Rng rng(5150);
  constexpr int kDraws = 20000;
  // Marginal over t must match the defensive mixture of g_t and uniform.
  const double eps = m.params().defensive_mix;
  std::map<int, int> t_counts;
  for (int i = 0; i < kDraws; ++i) ++t_counts[m.sample(rng).t];
  for (const auto& [t, n] : t_counts) {
    const double expect =
        (1.0 - eps) * m.g_t().pmf(static_cast<std::size_t>(t)) +
        eps / static_cast<double>(ctx().attack.t_count());
    EXPECT_NEAR(static_cast<double>(n) / kDraws, expect,
                5 * std::sqrt(expect / kDraws) + 1e-3)
        << "t=" << t;
  }
  // Joint pmf check on a small support.
  faultsim::AttackModel small = ctx().attack;
  small.t_max = 2;
  small.candidate_centers.clear();
  const auto& f0 = ctx().cone.frame(0);
  for (std::size_t i = 0; i < f0.gates.size() && i < 6; ++i) {
    small.candidate_centers.push_back(f0.gates[i]);
  }
  ASSERT_GE(small.candidate_centers.size(), 2u);
  SamplingModel sm(ctx().soc, ctx().placement, ctx().cone, ctx().signatures,
                   ctx().charac, small);
  std::map<std::pair<int, NodeId>, int> jcounts;
  for (int i = 0; i < kDraws; ++i) {
    const auto s = sm.sample(rng);
    ++jcounts[{s.t, s.center}];
  }
  int checked = 0;
  for (const auto& [key, n] : jcounts) {
    if (n < 200) continue;
    const double freq = static_cast<double>(n) / kDraws;
    EXPECT_NEAR(freq, sm.g_pmf(key.first, key.second), 0.2 * freq)
        << "t=" << key.first << " center=" << key.second;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(SamplingModel, WeightsAreLikelihoodRatios) {
  auto& m = model();
  Rng rng(99);
  const double f =
      1.0 / (ctx().attack.t_count() *
             static_cast<double>(ctx().attack.candidate_centers.size()));
  for (int i = 0; i < 200; ++i) {
    const auto s = m.sample(rng);
    EXPECT_GT(s.weight, 0.0);
    EXPECT_NEAR(s.weight, f / m.g_pmf(s.t, s.center), 1e-12);
  }
}

TEST(SamplingModel, ImportanceWeightsAverageToSupportMass) {
  auto& m = model();
  Rng rng(123);
  double sum = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += m.sample(rng).weight;
  const double mass = sum / kDraws;
  EXPECT_LE(mass, 1.0 + 0.05);
  EXPECT_GT(mass, 0.0);
}

TEST(SamplingModel, SamplesRespectAttackRanges) {
  auto& m = model();
  Rng rng(321);
  for (int i = 0; i < 500; ++i) {
    const auto s = m.sample(rng);
    EXPECT_GE(s.t, ctx().attack.t_min);
    EXPECT_LE(s.t, ctx().attack.t_max);
    EXPECT_GE(s.strike_frac, 0.0);
    EXPECT_LT(s.strike_frac, 1.0);
    EXPECT_EQ(s.radius, ctx().attack.radii[0]);
    // The defensive mixture bounds every weight by 1/eps.
    EXPECT_LE(s.weight, 1.0 / m.params().defensive_mix + 1e-9);
  }
}

TEST(GateTermTable, EveryEntryMatchesScalarDefinition) {
  // Each entry against cone membership, the lifetime test and the scalar
  // SignatureTrace::correlation, for every node of every row. max_frame
  // passes the cone's fanin depth (12), so the row count is clamped; the
  // large beta makes the lifetime test fail for part of the members.
  const auto& nl = ctx().soc.netlist();
  const NodeId rs = ctx().cone.responding_signal();
  std::vector<double> lifetime(nl.node_count());
  for (NodeId g = 0; g < nl.node_count(); ++g) {
    lifetime[g] = model().lifetime_l(g);
  }
  for (const double beta : {1.0, 4.0}) {
    const GateTermTable table(ctx().cone, ctx().signatures, lifetime, beta,
                              20);
    ASSERT_EQ(table.rows(), 13);
    ASSERT_EQ(table.node_count(), nl.node_count());
    int members = 0, short_lived = 0;
    for (int f = 0; f < table.rows(); ++f) {
      for (NodeId g = 0; g < nl.node_count(); ++g) {
        double expect = -1.0;
        if (ctx().cone.contains(f, g)) {
          ++members;
          if (lifetime[g] >= beta * f) {
            expect = ctx().signatures.correlation(g, rs, f);
          } else {
            expect = 0.0;
            ++short_lived;
          }
        }
        ASSERT_EQ(table.term(f, g), expect)
            << "beta " << beta << " frame " << f << " node " << g;
      }
    }
    EXPECT_GT(members, 0);
    if (beta > 1.0) {
      EXPECT_GT(short_lived, 0);
    }
  }
  // A window that ends before the fanin depth stops the rows there.
  EXPECT_EQ(GateTermTable(ctx().cone, ctx().signatures, lifetime, 1.0, 4)
                .rows(),
            5);
}

TEST(SamplingModel, UnplacedCandidateThrows) {
  AttackModel bad = ctx().attack;
  bad.candidate_centers = {ctx().soc.netlist().inputs()[0]};  // PI: unplaced
  EXPECT_THROW(SamplingModel(ctx().soc, ctx().placement, ctx().cone,
                             ctx().signatures, ctx().charac, bad),
               fav::CheckError);
}

TEST(AttackModel, RandomSamplingIsUniform) {
  AttackModel a;
  a.t_min = 0;
  a.t_max = 4;
  a.candidate_centers = {10, 20, 30};
  a.radii = {1.0, 2.0};
  Rng rng(8);
  std::map<int, int> t_counts;
  for (int i = 0; i < 5000; ++i) {
    const auto s = a.sample(rng);
    EXPECT_DOUBLE_EQ(s.weight, 1.0);
    ++t_counts[s.t];
  }
  for (const auto& [t, n] : t_counts) {
    EXPECT_NEAR(n, 1000, 150) << t;
  }
}

TEST(AttackModel, InvalidModelsThrow) {
  AttackModel a;
  a.candidate_centers = {};
  EXPECT_THROW(a.check_valid(), fav::CheckError);
  a.candidate_centers = {1};
  a.radii = {};
  EXPECT_THROW(a.check_valid(), fav::CheckError);
  a.radii = {1.0};
  a.t_max = -1;
  EXPECT_THROW(a.check_valid(), fav::CheckError);
}

}  // namespace
}  // namespace fav::precharac
