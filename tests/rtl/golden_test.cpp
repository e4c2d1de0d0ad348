#include "rtl/golden.h"

#include <gtest/gtest.h>

#include "rtl/assembler.h"
#include "util/check.h"

namespace fav::rtl {
namespace {

Program loop_program() {
  return assemble(R"(
    addi r1, r0, 20   ; counter
    li r6, 0x0100     ; legal scratch base
  loop:
    sw r1, r6, 0
    lw r2, r6, 0
    addi r1, r1, -1
    bne r1, r0, loop
    halt
  )");
}

TEST(GoldenRun, StopsAtHalt) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 16);
  Machine ref(p);
  ref.run(10000);
  EXPECT_TRUE(ref.halted());
  EXPECT_EQ(golden.length(), ref.cycle());
  EXPECT_EQ(golden.final_state(), ref.state());
  EXPECT_TRUE(golden.final_ram() == ref.ram());
}

TEST(GoldenRun, RespectsMaxCycles) {
  const Program p = assemble("loop: jmp loop\n");
  GoldenRun golden(p, 50, 16);
  EXPECT_EQ(golden.length(), 50u);
  EXPECT_FALSE(golden.final_state().halted);
}

TEST(GoldenRun, StateTrajectoryMatchesStepping) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 16);
  Machine m(p);
  for (std::uint64_t c = 0; c <= golden.length(); ++c) {
    EXPECT_EQ(golden.state_at(c), m.state()) << "cycle " << c;
    EXPECT_EQ(golden.pc_at(c), m.state().pc) << "cycle " << c;
    if (c < golden.length()) m.step();
  }
  EXPECT_THROW(golden.state_at(golden.length() + 1), CheckError);
}

TEST(GoldenRun, CheckpointSpacing) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 8);
  const auto& cps = golden.checkpoints();
  ASSERT_GE(cps.size(), 2u);
  EXPECT_EQ(cps[0].cycle, 0u);
  for (std::size_t i = 1; i < cps.size(); ++i) {
    EXPECT_EQ(cps[i].cycle, i * 8);
  }
}

TEST(GoldenRun, NearestCheckpoint) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 8);
  EXPECT_EQ(golden.nearest_checkpoint(0).cycle, 0u);
  EXPECT_EQ(golden.nearest_checkpoint(7).cycle, 0u);
  EXPECT_EQ(golden.nearest_checkpoint(8).cycle, 8u);
  EXPECT_EQ(golden.nearest_checkpoint(23).cycle, 16u);
}

TEST(GoldenRun, RestoreMatchesDirectSimulation) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 8);
  for (std::uint64_t target :
       std::vector<std::uint64_t>{0, 5, 8, 13, golden.length()}) {
    std::uint64_t warmup = 999;
    Machine restored = golden.restore(target, &warmup);
    EXPECT_LE(warmup, 8u);
    EXPECT_EQ(restored.cycle(), target);

    Machine direct(p);
    for (std::uint64_t i = 0; i < target; ++i) direct.step();
    EXPECT_EQ(restored.state(), direct.state()) << "cycle " << target;
    EXPECT_TRUE(restored.ram() == direct.ram()) << "cycle " << target;
  }
}

TEST(GoldenRun, RestoredMachineContinuesIdentically) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 8);
  Machine restored = golden.restore(10);
  restored.run(100000);
  EXPECT_EQ(restored.state(), golden.final_state());
  EXPECT_TRUE(restored.ram() == golden.final_ram());
}

TEST(GoldenRun, NoViolationInCleanRun) {
  const Program p = loop_program();
  GoldenRun golden(p, 10000, 8);
  EXPECT_FALSE(golden.first_violation_cycle().has_value());
  for (std::uint64_t c = 0; c < golden.length(); ++c) {
    EXPECT_FALSE(golden.viol_at(c));
  }
}

TEST(GoldenRun, ViolationCycleLocated) {
  const Program p = assemble(R"(
    ; enable MPU with a single region that does NOT cover 0x9000
    li r1, 0xFF00
    li r2, 0x0000
    sw r2, r1, 0
    li r2, 0x3FFF
    sw r2, r1, 1
    li r2, 7
    sw r2, r1, 2
    li r1, 0xFF22
    li r2, 1
    sw r2, r1, 0
    li r1, 0x9000
    lw r3, r1, 0     ; violation here
    halt
  )");
  GoldenRun golden(p, 1000, 16);
  const auto tt = golden.first_violation_cycle();
  ASSERT_TRUE(tt.has_value());
  EXPECT_TRUE(golden.viol_at(*tt));
  // Straight-line code: cycle == rom index. The violating lw sits after
  // 6 li pseudo-ops (12 words) and 4 sw + 2 li words = rom[18].
  EXPECT_EQ(*tt, 18u);
  EXPECT_TRUE(golden.final_state().viol_sticky);
}

}  // namespace
}  // namespace fav::rtl
