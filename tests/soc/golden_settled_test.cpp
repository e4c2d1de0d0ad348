// The golden settled table must hold, for every injection cycle, exactly
// the gate-level values the per-sample flow computes: restore the golden
// state, load it into the netlist with the RAM image, settle the cycle.
#include "soc/golden_settled.h"

#include <gtest/gtest.h>

#include "soc/benchmark.h"
#include "util/check.h"

namespace fav::soc {
namespace {

TEST(GoldenSettledTable, RowsMatchRestoreAndSettleNodeForNode) {
  const SocNetlist soc;
  const SecurityBenchmark bench = make_illegal_write_benchmark();
  const rtl::GoldenRun golden(bench.program, bench.max_cycles, 32);
  ASSERT_GT(golden.length(), 64u);  // spans several checkpoints

  GoldenSettledTable table(soc, golden);
  rtl::Machine scratch_machine(bench.program);
  GateLevelMachine scratch_gate(soc, bench.program);
  rtl::Machine machine(bench.program);
  GateLevelMachine gate(soc, bench.program);
  const std::size_t nodes = soc.netlist().node_count();
  for (std::uint64_t te = 0; te < golden.length(); ++te) {
    SCOPED_TRACE("te=" + std::to_string(te));
    bool built = false;
    const GoldenSettledTable::Row& row =
        table.row(te, scratch_machine, scratch_gate, &built);
    EXPECT_TRUE(built);

    std::uint64_t warmup = 0;
    golden.restore_into(machine, te, &warmup);
    gate.load_state(machine.state());
    gate.mutable_ram() = machine.ram();
    gate.settle_inputs();
    EXPECT_EQ(row.halted, machine.halted());
    EXPECT_EQ(row.warmup, warmup);
    EXPECT_EQ(row.warmup, te - golden.nearest_checkpoint(te).cycle);
    ASSERT_EQ(row.values.size(), nodes);
    for (std::size_t id = 0; id < nodes; ++id) {
      ASSERT_EQ(row.values.get(id),
                gate.sim().value(static_cast<netlist::NodeId>(id)))
          << "node " << id;
    }
  }
}

TEST(GoldenSettledTable, FinalCycleIsHaltedAndRowsAreBuiltOnce) {
  const SocNetlist soc;
  const SecurityBenchmark bench = make_illegal_write_benchmark();
  const rtl::GoldenRun golden(bench.program, bench.max_cycles, 32);
  GoldenSettledTable table(soc, golden);
  rtl::Machine machine(bench.program);
  GateLevelMachine gate(soc, bench.program);
  bool built = false;
  const GoldenSettledTable::Row& last =
      table.row(golden.length(), machine, gate, &built);
  EXPECT_TRUE(built);
  EXPECT_TRUE(last.halted);
  EXPECT_EQ(&table.row(golden.length(), machine, gate, &built), &last);
  EXPECT_FALSE(built);
  EXPECT_THROW(table.row(golden.length() + 1, machine, gate), CheckError);
}

}  // namespace
}  // namespace fav::soc
