// Bit-exactness pins for the importance sampler on the `write` benchmark.
//
// Each digest covers every frame's (center, weight) pairs in draw order and
// the g_T pmf, hashed over the exact IEEE-754 bit patterns. Any change to
// the weight expression, its evaluation order or the support shifts a digest,
// so an optimisation of the sampler build must keep all three equal.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/framework.h"
#include "precharac/sampling_model.h"
#include "util/io.h"

namespace fav::precharac {
namespace {

using netlist::NodeId;

core::FaultAttackEvaluator& fw() {
  static core::FaultAttackEvaluator instance(
      soc::make_illegal_write_benchmark());
  return instance;
}

struct Digest {
  std::uint64_t frames = 0xCBF29CE484222325ull;
  std::uint64_t g_t = 0xCBF29CE484222325ull;
};

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return io::fnv1a64(&bits, sizeof(bits), h);
}

Digest digest(const SamplingModel& m) {
  Digest d;
  const faultsim::AttackModel& a = m.attack();
  for (int t = a.t_min; t <= a.t_max; ++t) {
    for (const NodeId c : a.candidate_centers) {
      const double w = m.center_weight(t, c);
      if (w == 0.0) continue;
      const auto id = static_cast<std::uint32_t>(c);
      d.frames = io::fnv1a64(&id, sizeof(id), d.frames);
      d.frames = mix_double(d.frames, w);
    }
  }
  for (std::size_t i = 0; i < m.g_t().size(); ++i) {
    d.g_t = mix_double(d.g_t, m.g_t().pmf(i));
  }
  return d;
}

TEST(SamplingModelPin, SubblockModelDigest) {
  const auto attack = fw().subblock_attack_model(1.5, 50);
  const Digest d = digest(fw().make_sampling_model(attack));
  EXPECT_EQ(d.frames, 0xB2B1328503B4A183ull);
  EXPECT_EQ(d.g_t, 0x08D4762521ED8F83ull);
}

TEST(SamplingModelPin, SubblockModelWithCenterBoostDigest) {
  const auto attack = fw().subblock_attack_model(1.5, 50);
  const SamplingModel m(fw().soc(), fw().placement(), fw().cone(),
                        fw().signatures(), fw().characterization(), attack,
                        fw().sampling_params_for(attack));
  const Digest d = digest(m);
  EXPECT_EQ(d.frames, 0x880F218A34210900ull);
  EXPECT_EQ(d.g_t, 0x7A4AFA4651E0557Cull);
}

TEST(SamplingModelPin, TRangePastFaninDepthDigest) {
  // Frames past the cone's fanin depth carry only the memory, transit and
  // direct-hit terms; the window must actually reach them.
  const auto attack = fw().subblock_attack_model(1.5, 70);
  ASSERT_GT(attack.t_max, fw().config().cone_fanin_depth);
  const Digest d = digest(fw().make_sampling_model(attack));
  EXPECT_EQ(d.frames, 0xA75222913EAA58D4ull);
  EXPECT_EQ(d.g_t, 0x75AE58AECC7126D1ull);
}

}  // namespace
}  // namespace fav::precharac
