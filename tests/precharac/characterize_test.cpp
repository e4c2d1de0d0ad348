#include "precharac/characterize.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "soc/benchmark.h"
#include "util/check.h"
#include "util/io.h"

namespace fav::precharac {
namespace {

using rtl::Machine;
using rtl::RegisterMap;

const rtl::Program& workload() {
  static const rtl::Program p = soc::make_synthetic_workload();
  return p;
}

const rtl::GoldenRun& golden() {
  static const rtl::GoldenRun g(workload(), 400, 16);
  return g;
}

int field_bit(const std::string& name, int bit = 0) {
  const RegisterMap& map = Machine::reg_map();
  return map.field(map.field_index(name)).offset + bit;
}

TEST(RegisterCharacterization, UnusedMpuRegionIsMemoryType) {
  // Region 3 is never configured by the synthetic workload: a bit error in
  // its base register persists forever and contaminates nothing (MPU checks
  // only use enabled regions and region 3 stays disabled).
  const int bit = field_bit("mpu3_base", 7);
  RegisterCharacterization charac(golden(), {}, {bit});
  ASSERT_TRUE(charac.characterized(bit));
  const auto& bc = charac.bit(bit);
  EXPECT_GT(bc.samples, 0);
  EXPECT_DOUBLE_EQ(bc.avg_lifetime,
                   static_cast<double>(charac.config().horizon));
  EXPECT_DOUBLE_EQ(bc.avg_contamination, 0.0);
  EXPECT_TRUE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, ViolAddrIsMemoryType) {
  // viol_addr is only written on violation; the clean workload never
  // violates, so errors stay.
  const int bit = field_bit("viol_addr", 5);
  RegisterCharacterization charac(golden(), {}, {bit});
  EXPECT_TRUE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, LoopRegisterIsComputationType) {
  // r4 is rewritten every loop iteration: short lifetime.
  const int bit = field_bit("r4", 2);
  RegisterCharacterization charac(golden(), {}, {bit});
  const auto& bc = charac.bit(bit);
  EXPECT_LT(bc.avg_lifetime, charac.config().lifetime_threshold);
  EXPECT_FALSE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, PcErrorContaminates) {
  // A PC bit error derails execution: many registers diverge.
  const int bit = field_bit("pc", 1);
  RegisterCharacterization charac(golden(), {}, {bit});
  EXPECT_GT(charac.bit(bit).avg_contamination, 1.0);
  EXPECT_FALSE(charac.is_memory_type(bit));
}

TEST(RegisterCharacterization, LifetimeAccessorDefaultsToZero) {
  const int bit = field_bit("r4");
  RegisterCharacterization charac(golden(), {}, {bit});
  EXPECT_EQ(charac.lifetime(field_bit("r5")), 0.0);  // not characterized
  EXPECT_FALSE(charac.is_memory_type(field_bit("r5")));
  EXPECT_THROW(charac.bit(field_bit("r5")), fav::CheckError);
}

TEST(RegisterCharacterization, InvalidConfigThrows) {
  CharacterizationConfig cfg;
  cfg.horizon = 0;
  EXPECT_THROW(RegisterCharacterization(golden(), cfg, {0}), fav::CheckError);
  cfg = {};
  cfg.stride = 0;
  EXPECT_THROW(RegisterCharacterization(golden(), cfg, {0}), fav::CheckError);
}

TEST(RegisterCharacterization, OutOfRangeBitThrows) {
  EXPECT_THROW(RegisterCharacterization(golden(), {}, {100000}),
               fav::CheckError);
}

TEST(RegisterCharacterization, DuplicateBitThrows) {
  // A bit listed twice would accumulate its cycles twice and divide twice.
  const int bit = field_bit("r4", 2);
  EXPECT_THROW(
      RegisterCharacterization(golden(), {}, {bit, field_bit("pc"), bit}),
      fav::CheckError);
}

// The framework's default pre-characterization: the synthetic workload's
// 400-cycle golden run with checkpoints every 32 cycles, default config.
const rtl::GoldenRun& framework_golden() {
  static const rtl::GoldenRun g(workload(), 400, 32);
  return g;
}

const RegisterCharacterization& full_sweep() {
  static const RegisterCharacterization charac(framework_golden());
  return charac;
}

std::uint64_t mix_double(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return io::fnv1a64(&bits, sizeof(bits), h);
}

TEST(CharacterizationPin, FullSweepDigest) {
  // Every bit's four figures, hashed over their exact IEEE-754 patterns in
  // flat-bit order: any change to the injection cycles, the comparison
  // against the golden run or the accumulation order shifts the digest.
  const RegisterCharacterization& charac = full_sweep();
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (int b = 0; b < Machine::reg_map().total_bits(); ++b) {
    ASSERT_TRUE(charac.characterized(b)) << b;
    const BitCharacterization& bc = charac.bit(b);
    h = mix_double(h, bc.avg_lifetime);
    h = mix_double(h, bc.max_lifetime);
    h = mix_double(h, bc.avg_contamination);
    const auto samples = static_cast<std::int32_t>(bc.samples);
    h = io::fnv1a64(&samples, sizeof(samples), h);
  }
  EXPECT_EQ(h, 0xB8BC39A801A65093ull);
}

TEST(RegisterCharacterization, SubsetMatchesFullSweep) {
  // Bits characterized alone or in a small set read exactly their entries
  // of the full sweep: nothing leaks from one bit's injection into the
  // next through a shared machine, its RAM or its cycle counter.
  const RegisterCharacterization& full = full_sweep();
  const std::vector<int> picks = {
      field_bit("pc", 1),        field_bit("r4", 2),
      field_bit("r0", 0),        field_bit("mpu0_perm", 1),
      field_bit("viol_addr", 5), field_bit("dma_len", 3),
      field_bit("halted")};
  auto expect_matches = [&](const RegisterCharacterization& sub) {
    for (const int b : picks) {
      if (!sub.characterized(b)) continue;
      const BitCharacterization& got = sub.bit(b);
      const BitCharacterization& want = full.bit(b);
      EXPECT_EQ(got.avg_lifetime, want.avg_lifetime) << b;
      EXPECT_EQ(got.max_lifetime, want.max_lifetime) << b;
      EXPECT_EQ(got.avg_contamination, want.avg_contamination) << b;
      EXPECT_EQ(got.samples, want.samples) << b;
    }
  };
  for (const int b : picks) {
    expect_matches(RegisterCharacterization(framework_golden(), {}, {b}));
  }
  // All together, in reverse order, so the pc's derailed run comes last.
  expect_matches(RegisterCharacterization(
      framework_golden(), {}, std::vector<int>(picks.rbegin(), picks.rend())));
}

TEST(RegisterCharacterization, FullSweepClassesMatchExpectations) {
  // Characterize every bit (the real pre-characterization pass) and check
  // the aggregate shape of Fig. 4: a large fraction of bits are memory-type,
  // and the expectation flags in the register map mostly agree with the
  // empirical classification.
  CharacterizationConfig cfg;
  cfg.stride = 37;  // keep the test fast; benches use a denser sweep
  RegisterCharacterization charac(golden(), cfg);
  const RegisterMap& map = Machine::reg_map();

  const auto memory_bits = charac.memory_type_bits();
  EXPECT_GT(memory_bits.size(), 100u);  // MPU config dominates (144 bits)
  EXPECT_LT(memory_bits.size(), static_cast<std::size_t>(map.total_bits()));

  // Unconfigured MPU regions 2/3 must classify memory-type wholesale.
  for (const char* field : {"mpu2_base", "mpu3_limit", "mpu3_perm"}) {
    const int off = map.field(map.field_index(field)).offset;
    for (int b = 0; b < map.field(map.field_index(field)).width; ++b) {
      EXPECT_TRUE(charac.is_memory_type(off + b)) << field << "[" << b << "]";
    }
  }
  // The PC must not.
  for (int b = 0; b < 4; ++b) {
    EXPECT_FALSE(charac.is_memory_type(field_bit("pc", b))) << b;
  }
}

}  // namespace
}  // namespace fav::precharac
