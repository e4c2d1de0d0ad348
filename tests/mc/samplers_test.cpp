#include "mc/samplers.h"

#include <gtest/gtest.h>

#include "soc/benchmark.h"
#include "util/check.h"

namespace fav::mc {
namespace {

using faultsim::AttackModel;
using netlist::NodeId;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  netlist::UnrolledCone cone{soc.netlist(),
                             soc.netlist().find_or_throw("mpu_viol"), 12, 2};
  AttackModel attack;

  Context() {
    attack.t_min = 0;
    attack.t_max = 9;
    attack.candidate_centers = placement.placed_nodes();
  }
};

Context& ctx() {
  static Context c;
  return c;
}

TEST(RandomSampler, DrawsFromF) {
  RandomSampler s(ctx().attack);
  EXPECT_EQ(s.name(), "random");
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    const auto f = s.draw(rng);
    EXPECT_DOUBLE_EQ(f.weight, 1.0);
    EXPECT_GE(f.t, 0);
    EXPECT_LE(f.t, 9);
  }
}

TEST(ConeSampler, SupportIsSpotBased) {
  ConeSampler s(ctx().attack, ctx().cone, ctx().placement);
  EXPECT_EQ(s.name(), "fanin_cone");
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const auto f = s.draw(rng);
    // Every drawn center's spot must touch the cone at the drawn frame
    // (gates at frame t, registers at frame t-1).
    bool touches = false;
    for (const NodeId g :
         ctx().placement.nodes_within(f.center, f.radius)) {
      if (ctx().cone.contains(f.t, g) ||
          (f.t >= 1 && ctx().cone.contains(f.t - 1, g))) {
        touches = true;
        break;
      }
    }
    EXPECT_TRUE(touches) << "t=" << f.t << " center=" << f.center;
    EXPECT_GT(f.weight, 0.0);
  }
}

TEST(ConeSampler, WeightsAverageToSupportMass) {
  // E_g[f/g] = f-mass of the cone support <= 1 — this *is* the sample-space
  // reduction of Fig. 8(b).
  ConeSampler s(ctx().attack, ctx().cone, ctx().placement);
  Rng rng(3);
  double sum = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += s.draw(rng).weight;
  const double mass = sum / kDraws;
  EXPECT_GT(mass, 0.0);
  EXPECT_LE(mass, 1.0 + 1e-9);
}

TEST(ConeSampler, EmptySupportThrows) {
  AttackModel bad = ctx().attack;
  // A center whose spot cannot touch the cone: place radius 0 at a cell
  // outside every frame.
  bad.radii = {0.0};
  NodeId outside = netlist::kInvalidNode;
  for (const NodeId id : ctx().placement.placed_nodes()) {
    bool in_any = false;
    for (int f = -2; f <= 12; ++f) {
      if (ctx().cone.contains(f, id)) in_any = true;
    }
    if (!in_any) {
      outside = id;
      break;
    }
  }
  ASSERT_NE(outside, netlist::kInvalidNode);
  bad.candidate_centers = {outside};
  EXPECT_THROW(ConeSampler(bad, ctx().cone, ctx().placement),
               fav::CheckError);
}

TEST(GlitchSampler, DrawsUniformOverModelGrid) {
  // One sampler for both glitch kinds: samples carry the model's kind, and
  // the name (which keys campaign fingerprints) stays kind-specific.
  for (const auto kind : {faultsim::TechniqueKind::kClockGlitch,
                          faultsim::TechniqueKind::kVoltageGlitch}) {
    SCOPED_TRACE(faultsim::technique_kind_name(kind));
    faultsim::GlitchAttackModel model(kind);
    model.t_min = 2;
    model.t_max = 11;
    model.levels = {0.4, 0.6, 0.8};
    GlitchSampler s(model, /*target_cycle=*/100);
    EXPECT_EQ(s.name(), kind == faultsim::TechniqueKind::kClockGlitch
                            ? "glitch-uniform"
                            : "voltage-uniform");
    Rng rng(4);
    for (int i = 0; i < 300; ++i) {
      const auto f = s.draw(rng);
      EXPECT_EQ(f.technique, kind);
      EXPECT_GE(f.t, 2);
      EXPECT_LE(f.t, 11);
      EXPECT_TRUE(f.depth == 0.4 || f.depth == 0.6 || f.depth == 0.8)
          << f.depth;
      EXPECT_DOUBLE_EQ(f.weight, 1.0);  // draws from f itself
    }
  }
}

TEST(GlitchSampler, RejectsModelBeyondTargetCycle) {
  // t > Tt has no cycle to glitch; such samples used to dilute the estimate
  // as silent always-masked records. The sampler now refuses the model.
  faultsim::GlitchAttackModel model;
  model.t_min = 1;
  model.t_max = 150;
  model.levels = {0.5};
  EXPECT_THROW(GlitchSampler(model, /*target_cycle=*/100), fav::CheckError);
}

}  // namespace
}  // namespace fav::mc
