#include "rtl/machine.h"

#include <gtest/gtest.h>

#include "rtl/assembler.h"
#include "rtl/golden.h"

namespace fav::rtl {
namespace {

Program asm_prog(const std::string& src) { return assemble(src); }

// Runs a program until halt (or 10k cycles) and returns the machine.
Machine run_to_halt(const Program& prog) {
  Machine m(prog);
  m.run(10000);
  return m;
}

TEST(Machine, ResetState) {
  const Program p = asm_prog("halt\n");
  Machine m(p);
  EXPECT_EQ(m.state().pc, 0);
  EXPECT_FALSE(m.halted());
  EXPECT_FALSE(m.state().mpu_enable);
  for (auto r : m.state().regs) EXPECT_EQ(r, 0);
}

TEST(Machine, HaltStopsExecution) {
  const Program p = asm_prog(R"(
    addi r1, r0, 5
    halt
    addi r1, r0, 9
  )");
  Machine m(p);
  EXPECT_EQ(m.run(100), 2u);
  EXPECT_TRUE(m.halted());
  EXPECT_EQ(m.state().regs[1], 5);
  const auto pc = m.state().pc;
  m.step();  // no-op when halted
  EXPECT_EQ(m.state().pc, pc);
}

TEST(Machine, AluOperations) {
  const Program p = asm_prog(R"(
    addi r1, r0, 12
    addi r2, r0, 10
    add r3, r1, r2
    sub r4, r1, r2
    and r5, r1, r2
    or  r6, r1, r2
    xor r7, r1, r2
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[3], 22);
  EXPECT_EQ(m.state().regs[4], 2);
  EXPECT_EQ(m.state().regs[5], 8);
  EXPECT_EQ(m.state().regs[6], 14);
  EXPECT_EQ(m.state().regs[7], 6);
}

TEST(Machine, SubWraps) {
  const Program p = asm_prog(R"(
    addi r1, r0, 3
    addi r2, r0, 5
    sub r3, r1, r2
    halt
  )");
  EXPECT_EQ(run_to_halt(p).state().regs[3], 0xFFFE);
}

TEST(Machine, Shifts) {
  const Program p = asm_prog(R"(
    li  r1, 0x8001
    addi r2, r0, 1
    shl r3, r1, r2
    shr r4, r1, r2
    addi r2, r0, 15
    shr r5, r1, r2
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[3], 0x0002);
  EXPECT_EQ(m.state().regs[4], 0x4000);
  EXPECT_EQ(m.state().regs[5], 0x0001);
}

TEST(Machine, ShiftAmountMasksToFourBits) {
  const Program p = asm_prog(R"(
    addi r1, r0, 1
    addi r2, r0, 16   ; & 0xF == 0 -> no shift
    shl r3, r1, r2
    halt
  )");
  EXPECT_EQ(run_to_halt(p).state().regs[3], 1);
}

TEST(Machine, MovLuiOri) {
  const Program p = asm_prog(R"(
    li r1, 0xBEEF
    mov r2, r1
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[1], 0xBEEF);
  EXPECT_EQ(m.state().regs[2], 0xBEEF);
}

TEST(Machine, LoadStoreRoundTrip) {
  const Program p = asm_prog(R"(
    li r1, 0x0100
    li r2, 0x1234
    sw r2, r1, 3
    lw r3, r1, 3
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.ram().read(0x0103), 0x1234);
  EXPECT_EQ(m.state().regs[3], 0x1234);
}

TEST(Machine, NegativeLoadOffset) {
  const Program p = asm_prog(R"(
    .data 0x00FE 0xCAFE
    li r1, 0x0100
    lw r2, r1, -2
    halt
  )");
  EXPECT_EQ(run_to_halt(p).state().regs[2], 0xCAFE);
}

TEST(Machine, BranchTakenAndNotTaken) {
  const Program p = asm_prog(R"(
    addi r1, r0, 3
    addi r2, r0, 3
    beq r1, r2, equal
    addi r3, r0, 1    ; skipped
  equal:
    bne r1, r2, never
    addi r4, r0, 2    ; executed
  never:
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[3], 0);
  EXPECT_EQ(m.state().regs[4], 2);
}

TEST(Machine, LoopViaBackwardBranch) {
  // Sum 1..5 with a bne loop.
  const Program p = asm_prog(R"(
    addi r1, r0, 5    ; counter
    addi r2, r0, 0    ; sum
  loop:
    add r2, r2, r1
    addi r1, r1, -1
    bne r1, r0, loop
    halt
  )");
  EXPECT_EQ(run_to_halt(p).state().regs[2], 15);
}

TEST(Machine, JmpAbsolute) {
  const Program p = asm_prog(R"(
    jmp target
    addi r1, r0, 1
  target:
    addi r2, r0, 2
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[1], 0);
  EXPECT_EQ(m.state().regs[2], 2);
}

TEST(Machine, RamInitApplied) {
  const Program p = asm_prog(R"(
    .data 0x0200 0xABCD
    li r1, 0x0200
    lw r2, r1, 0
    halt
  )");
  EXPECT_EQ(run_to_halt(p).state().regs[2], 0xABCD);
}

TEST(Machine, FetchBeyondRomIsNop) {
  const Program p = asm_prog("addi r1, r0, 1\n");  // no halt: falls off ROM
  Machine m(p);
  EXPECT_EQ(m.run(10), 10u);  // keeps executing NOPs
  EXPECT_EQ(m.state().regs[1], 1);
  EXPECT_EQ(m.state().pc, 10);
}

TEST(Machine, StepInfoReportsMemoryTraffic) {
  const Program p = asm_prog(R"(
    li r1, 0x0100
    li r2, 0x00AA
    sw r2, r1, 0
    lw r3, r1, 0
    halt
  )");
  Machine m(p);
  m.step();
  m.step();
  m.step();
  m.step();  // li expands to two instrs; this is the sw
  StepInfo sw_info = m.step();
  EXPECT_TRUE(sw_info.mem_write);
  EXPECT_TRUE(sw_info.mem_write_done);
  EXPECT_EQ(sw_info.mem_addr, 0x0100);
  EXPECT_EQ(sw_info.mem_wdata, 0x00AA);
  StepInfo lw_info = m.step();
  EXPECT_TRUE(lw_info.mem_read);
  EXPECT_EQ(lw_info.mem_rdata, 0x00AA);
}

// --- MPU behaviour ---------------------------------------------------------

constexpr const char* kMpuSetup = R"(
    ; region 0: [0x0000, 0x3FFF] read+write+enable
    li r1, 0xFF00
    li r2, 0x0000
    sw r2, r1, 0
    li r2, 0x3FFF
    sw r2, r1, 1
    li r2, 7
    sw r2, r1, 2
    ; region 1: [0x4000, 0x4FFF] read-only, enabled
    li r1, 0xFF08
    li r2, 0x4000
    sw r2, r1, 0
    li r2, 0x4FFF
    sw r2, r1, 1
    li r2, 5
    sw r2, r1, 2
    ; enable the MPU
    li r1, 0xFF22
    li r2, 1
    sw r2, r1, 0
)";

TEST(Machine, MpuDisabledAllowsEverything) {
  const Program p = asm_prog(R"(
    li r1, 0x4100
    li r2, 0xBEEF
    sw r2, r1, 0
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.ram().read(0x4100), 0xBEEF);
  EXPECT_FALSE(m.state().viol_sticky);
}

TEST(Machine, MpuAllowsPermittedAccess) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    li r1, 0x0100
    li r2, 0x5555
    sw r2, r1, 0
    lw r3, r1, 0
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[3], 0x5555);
  EXPECT_FALSE(m.state().viol_sticky);
}

TEST(Machine, MpuBlocksIllegalWrite) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    .data 0x4100 0x1111
    li r1, 0x4100
    li r2, 0xBEEF
    sw r2, r1, 0     ; write to read-only region
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.ram().read(0x4100), 0x1111);  // squashed
  EXPECT_TRUE(m.state().viol_sticky);
  EXPECT_EQ(m.state().viol_addr, 0x4100);
}

TEST(Machine, MpuAllowsReadOfReadOnlyRegion) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    .data 0x4100 0x2222
    li r1, 0x4100
    lw r3, r1, 0
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[3], 0x2222);
  EXPECT_FALSE(m.state().viol_sticky);
}

TEST(Machine, MpuBlocksReadOutsideAllRegions) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    .data 0x9000 0x7777
    li r1, 0x9000
    lw r3, r1, 0
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[3], 0);  // squashed load reads 0
  EXPECT_TRUE(m.state().viol_sticky);
  EXPECT_EQ(m.state().viol_addr, 0x9000);
}

TEST(Machine, ViolAddrLatchesFirstViolationOnly) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    li r1, 0x9000
    lw r3, r1, 0     ; first violation at 0x9000
    li r1, 0xA000
    lw r3, r1, 0     ; second violation ignored by viol_addr
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_TRUE(m.state().viol_sticky);
  EXPECT_EQ(m.state().viol_addr, 0x9000);
}

TEST(Machine, ViolFlagClearedByDeviceWrite) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    li r1, 0x9000
    lw r3, r1, 0      ; violation
    li r1, 0xFF20
    sw r0, r1, 0      ; clear sticky flag
    lw r4, r1, 0      ; read flag back
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_FALSE(m.state().viol_sticky);
  EXPECT_EQ(m.state().regs[4], 0);
}

TEST(Machine, DeviceReadbackOfMpuConfig) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    li r1, 0xFF08
    lw r2, r1, 0     ; region1 base
    lw r3, r1, 1     ; region1 limit
    lw r4, r1, 2     ; region1 perm
    li r1, 0xFF22
    lw r5, r1, 0     ; enable bit
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[2], 0x4000);
  EXPECT_EQ(m.state().regs[3], 0x4FFF);
  EXPECT_EQ(m.state().regs[4], 5);
  EXPECT_EQ(m.state().regs[5], 1);
}

TEST(Machine, DeviceAccessNeverChecked) {
  // MPU enabled with no region covering the device page: device loads and
  // stores still work and raise no violation.
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    li r1, 0xFF08
    lw r2, r1, 2
    halt
  )");
  const Machine m = run_to_halt(p);
  EXPECT_EQ(m.state().regs[2], 5);
  EXPECT_FALSE(m.state().viol_sticky);
}

TEST(Machine, MpuViolWireReportedInStepInfo) {
  const Program p = asm_prog(std::string(kMpuSetup) + R"(
    li r1, 0x4100
    li r2, 1
    sw r2, r1, 0
    halt
  )");
  Machine m(p);
  bool saw_viol = false;
  while (!m.halted()) {
    if (m.step().mpu_viol) saw_viol = true;
  }
  EXPECT_TRUE(saw_viol);
}

TEST(Machine, MpuAllowsHelper) {
  ArchState s;
  s.mpu_enable = true;
  s.mpu[0] = {0x1000, 0x1FFF, kPermRead | kPermWrite | kPermEnable};
  s.mpu[1] = {0x2000, 0x2FFF, kPermRead | kPermEnable};
  EXPECT_TRUE(Machine::mpu_allows(s, 0x1000, true));
  EXPECT_TRUE(Machine::mpu_allows(s, 0x1FFF, false));
  EXPECT_FALSE(Machine::mpu_allows(s, 0x2100, true));   // read-only region
  EXPECT_TRUE(Machine::mpu_allows(s, 0x2100, false));
  EXPECT_FALSE(Machine::mpu_allows(s, 0x3000, false));  // uncovered
  EXPECT_TRUE(Machine::mpu_allows(s, 0xFF00, true));    // device page
  // Disabled region never grants.
  s.mpu[1].perm = kPermRead;
  EXPECT_FALSE(Machine::mpu_allows(s, 0x2100, false));
  // MPU off grants everything.
  s.mpu_enable = false;
  EXPECT_TRUE(Machine::mpu_allows(s, 0x3000, true));
}

TEST(Machine, ResetRestoresInitialRam) {
  const Program p = asm_prog(R"(
    .data 0x0100 0x00AA
    li r1, 0x0100
    li r2, 0x00BB
    sw r2, r1, 0
    halt
  )");
  Machine m(p);
  m.run(1000);
  EXPECT_EQ(m.ram().read(0x0100), 0x00BB);
  m.reset();
  EXPECT_EQ(m.ram().read(0x0100), 0x00AA);
  EXPECT_EQ(m.state().pc, 0);
  EXPECT_EQ(m.cycle(), 0u);
}

TEST(MemoryLog, RollbackAfterRepeatedWritesRestoresTheImage) {
  Memory mem;
  mem.write(0x0010, 0x1111);
  mem.write(0x0020, 0x2222);
  const Memory before = mem;
  mem.start_log();
  EXPECT_TRUE(mem.logging());
  // The same address three times: only the oldest value may survive.
  mem.write(0x0010, 0xAAAA);
  mem.write(0x0010, 0xBBBB);
  mem.write(0x0030, 0x3333);
  mem.write(0x0010, 0xCCCC);
  EXPECT_EQ(mem.logged_writes(), 4u);
  mem.rollback();
  EXPECT_EQ(mem, before);
  EXPECT_EQ(mem.read(0x0010), 0x1111);
  EXPECT_EQ(mem.read(0x0030), 0);
  EXPECT_EQ(mem.logged_writes(), 0u);
  // The log stays on: a second run rolls back to the same image.
  EXPECT_TRUE(mem.logging());
  mem.write(0x0020, 0xDDDD);
  mem.rollback();
  EXPECT_EQ(mem, before);
  // Off (a copy), writes are not logged and rollback changes nothing.
  Memory copy = mem;
  copy.write(0x0020, 0xEEEE);
  EXPECT_EQ(copy.logged_writes(), 0u);
  copy.rollback();
  EXPECT_EQ(copy.read(0x0020), 0xEEEE);
}

TEST(MemoryLog, CopiesCarryNoLog) {
  Memory mem;
  mem.start_log();
  mem.write(0x0040, 0x4444);
  const Memory copy(mem);
  EXPECT_FALSE(copy.logging());
  EXPECT_EQ(copy.logged_writes(), 0u);
  EXPECT_EQ(copy.read(0x0040), 0x4444);

  Memory assigned;
  assigned.start_log();
  assigned.write(0x0050, 0x5555);
  assigned = mem;  // takes mem's words; its own log is dropped and off
  EXPECT_FALSE(assigned.logging());
  EXPECT_EQ(assigned.logged_writes(), 0u);
  EXPECT_EQ(assigned.read(0x0040), 0x4444);
  EXPECT_EQ(assigned.read(0x0050), 0);
  assigned.rollback();
  EXPECT_EQ(assigned.read(0x0040), 0x4444);

  Memory moved(std::move(assigned));
  EXPECT_FALSE(moved.logging());
  // The source keeps its log.
  EXPECT_TRUE(mem.logging());
  EXPECT_EQ(mem.logged_writes(), 1u);
}

TEST(MemoryLog, EqualityIgnoresTheLog) {
  Memory logged;
  Memory plain;
  logged.start_log();
  logged.write(0x0060, 0x6666);
  plain.write(0x0060, 0x6666);
  EXPECT_EQ(logged, plain);
  logged.rollback();
  EXPECT_NE(logged, plain);
  plain.write(0x0060, 0);
  EXPECT_EQ(logged, plain);
}

TEST(MemoryLog, RolledBackMachineMatchesAFreshRestore) {
  // A loop that stores to a moving address every iteration, so each resumed
  // run dirties RAM the next must not see.
  const Program p = asm_prog(R"(
    li r1, 0x0200
    addi r3, r0, 30
  loop:
    sw r3, r1, 0
    sw r1, r1, 1
    addi r1, r1, 1
    addi r3, r3, -1
    bne r3, r0, loop
    halt
  )");
  const GoldenRun golden(p, 400, 16);
  ASSERT_TRUE(golden.final_state().halted);
  const std::uint64_t c = 37;
  Machine reused(p);
  golden.restore_into(reused, c);
  const ArchState restored = reused.state();
  reused.mutable_ram().start_log();
  const RegisterMap& map = Machine::reg_map();
  const int r1_bit = map.field(map.field_index("r1")).offset + 3;
  for (const int flip : {r1_bit, -1, r1_bit + 1, -1}) {
    reused.set_state(restored);
    reused.set_cycle(c);
    reused.mutable_ram().rollback();
    Machine fresh = golden.restore(c);
    if (flip >= 0) {
      map.flip_bit(reused.mutable_state(), flip);
      map.flip_bit(fresh.mutable_state(), flip);
    }
    for (int k = 0; k < 60; ++k) {
      reused.step();
      fresh.step();
    }
    EXPECT_GT(reused.ram().logged_writes(), 0u) << flip;
    EXPECT_EQ(reused.state(), fresh.state()) << flip;
    EXPECT_EQ(reused.ram(), fresh.ram()) << flip;
    EXPECT_EQ(reused.cycle(), fresh.cycle()) << flip;
  }
  // A restore turns the log off.
  golden.restore_into(reused, c);
  EXPECT_FALSE(reused.ram().logging());
  EXPECT_EQ(reused.ram(), golden.restore(c).ram());
}

}  // namespace
}  // namespace fav::rtl
