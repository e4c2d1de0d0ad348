#include "netlist/cones.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/check.h"

namespace fav::netlist {
namespace {

bool contains_id(const std::vector<NodeId>& v, NodeId id) {
  return std::find(v.begin(), v.end(), id) != v.end();
}

// Pipeline fixture:
//   in1 --+
//         AND(g1) --> r2 --+
//   r1 --+                 OR(rs) --> r3 --> NOT(g2) --> r4
//   in2 -------------------+
// r1 toggles (feedback through NOT), so the netlist is fully connected.
struct Pipeline : ::testing::Test {
  Netlist nl;
  NodeId in1, in2, r1, r2, r3, r4, g1, rs, g2, r1n;

  void SetUp() override {
    in1 = nl.add_input("in1");
    in2 = nl.add_input("in2");
    r1 = nl.add_dff("r1");
    r2 = nl.add_dff("r2");
    r3 = nl.add_dff("r3");
    r4 = nl.add_dff("r4");
    g1 = nl.add_gate(CellType::kAnd, {in1, r1}, "g1");
    rs = nl.add_gate(CellType::kOr, {r2, in2}, "rs");
    g2 = nl.add_gate(CellType::kNot, {r3}, "g2");
    r1n = nl.add_gate(CellType::kNot, {r1}, "r1n");
    nl.connect_dff(r1, r1n);
    nl.connect_dff(r2, g1);
    nl.connect_dff(r3, rs);
    nl.connect_dff(r4, g2);
    nl.validate();
  }
};

TEST_F(Pipeline, FaninFrameZero) {
  UnrolledCone cone(nl, rs, 2, 2);
  const ConeFrame& f0 = cone.frame(0);
  EXPECT_TRUE(contains_id(f0.gates, rs));
  EXPECT_TRUE(contains_id(f0.registers, r2));
  EXPECT_FALSE(contains_id(f0.gates, g1));  // g1 is one register crossing away
  EXPECT_FALSE(contains_id(f0.registers, r1));
}

TEST_F(Pipeline, FaninFrameOneCrossesRegister) {
  UnrolledCone cone(nl, rs, 2, 2);
  const ConeFrame& f1 = cone.frame(1);
  EXPECT_TRUE(contains_id(f1.gates, g1));
  EXPECT_TRUE(contains_id(f1.registers, r1));
  EXPECT_FALSE(contains_id(f1.registers, r2));  // r2's state matters at frame 0
}

TEST_F(Pipeline, FaninFrameTwoFollowsFeedback) {
  UnrolledCone cone(nl, rs, 2, 2);
  const ConeFrame& f2 = cone.frame(2);
  // r1's D input is r1n, fed by r1 again.
  EXPECT_TRUE(contains_id(f2.gates, r1n));
  EXPECT_TRUE(contains_id(f2.registers, r1));
}

TEST_F(Pipeline, FanoutFrames) {
  UnrolledCone cone(nl, rs, 2, 2);
  const ConeFrame& fm1 = cone.frame(-1);
  EXPECT_TRUE(contains_id(fm1.registers, r3));
  EXPECT_TRUE(contains_id(fm1.gates, g2));
  const ConeFrame& fm2 = cone.frame(-2);
  EXPECT_TRUE(contains_id(fm2.registers, r4));
}

TEST_F(Pipeline, MembershipQuery) {
  UnrolledCone cone(nl, rs, 2, 2);
  EXPECT_TRUE(cone.contains(0, rs));
  EXPECT_TRUE(cone.contains(0, r2));
  EXPECT_TRUE(cone.contains(1, g1));
  EXPECT_FALSE(cone.contains(0, g1));
  EXPECT_TRUE(cone.contains(-1, r3));
  EXPECT_FALSE(cone.contains(-1, r4));
  EXPECT_FALSE(cone.contains(5, rs));   // out of extracted range
  EXPECT_FALSE(cone.contains(-5, rs));
  EXPECT_FALSE(cone.contains(0, nl.node_count()));  // id past the netlist
  EXPECT_FALSE(cone.contains(0, kInvalidNode));
}

TEST_F(Pipeline, LoadedConeMatchesExtractedMembership) {
  // The artifact load path rebuilds membership from the stored frames; it
  // must answer contains() like the extraction for every cell and frame.
  const UnrolledCone extracted(nl, rs, 3, 2);
  const UnrolledCone loaded(rs, nl.node_count(), extracted.fanin_frames(),
                            extracted.fanout_frames());
  for (int frame = -2; frame <= 3; ++frame) {
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      if (!nl.is_comb_gate(id) && !nl.is_dff(id)) continue;
      EXPECT_EQ(loaded.contains(frame, id), extracted.contains(frame, id))
          << "frame " << frame << " node " << id;
    }
    EXPECT_FALSE(loaded.contains(frame, nl.node_count()));
  }
  EXPECT_EQ(loaded.all_fanin_registers(), extracted.all_fanin_registers());
  EXPECT_EQ(loaded.all_fanin_gates(), extracted.all_fanin_gates());
  // Ids past the netlist are rejected instead of read out of bounds.
  std::vector<ConeFrame> fanin = extracted.fanin_frames();
  fanin[1].gates.push_back(nl.node_count());
  EXPECT_THROW(UnrolledCone(rs, nl.node_count(), fanin,
                            extracted.fanout_frames()),
               CheckError);
}

TEST_F(Pipeline, DepthZeroLimitsTraversal) {
  UnrolledCone cone(nl, rs, 0, 0);
  EXPECT_TRUE(cone.contains(0, r2));
  EXPECT_FALSE(cone.has_frame(1));
  EXPECT_FALSE(cone.has_frame(-1));
  EXPECT_THROW(cone.frame(1), CheckError);
}

TEST_F(Pipeline, AllFaninAggregates) {
  UnrolledCone cone(nl, rs, 3, 0);
  const auto regs = cone.all_fanin_registers();
  EXPECT_TRUE(contains_id(regs, r1));
  EXPECT_TRUE(contains_id(regs, r2));
  EXPECT_FALSE(contains_id(regs, r3));
  EXPECT_FALSE(contains_id(regs, r4));
  const auto gates = cone.all_fanin_gates();
  EXPECT_TRUE(contains_id(gates, rs));
  EXPECT_TRUE(contains_id(gates, g1));
  EXPECT_TRUE(contains_id(gates, r1n));
  EXPECT_FALSE(contains_id(gates, g2));
}

TEST_F(Pipeline, ConeFromRegister) {
  // The cone can start at a DFF responding "signal" too.
  UnrolledCone cone(nl, r3, 1, 1);
  EXPECT_TRUE(cone.contains(0, r3));
  EXPECT_TRUE(cone.contains(1, rs));
  EXPECT_TRUE(cone.contains(1, r2));
  EXPECT_TRUE(cone.contains(-1, r4));  // r3 -> g2 -> r4 latches next cycle
}

TEST_F(Pipeline, ConeIsSubsetOfNetlist) {
  UnrolledCone cone(nl, rs, 4, 4);
  for (const auto& f : cone.fanin_frames()) {
    for (NodeId g : f.gates) EXPECT_TRUE(nl.is_comb_gate(g));
    for (NodeId r : f.registers) EXPECT_TRUE(nl.is_dff(r));
  }
  for (const auto& f : cone.fanout_frames()) {
    for (NodeId g : f.gates) EXPECT_TRUE(nl.is_comb_gate(g));
    for (NodeId r : f.registers) EXPECT_TRUE(nl.is_dff(r));
  }
}

TEST_F(Pipeline, CombFanoutInObservationCycleJoinsFrameZero) {
  // Add a comb gate after rs in the same cycle: rs -> AND(in2) -> r_extra.
  const NodeId g3 = nl.add_gate(CellType::kAnd, {rs, in2}, "g3");
  const NodeId r5 = nl.add_dff("r5");
  nl.connect_dff(r5, g3);
  UnrolledCone cone(nl, rs, 1, 1);
  EXPECT_TRUE(cone.contains(0, g3));
  EXPECT_TRUE(cone.contains(-1, r5));
}

}  // namespace
}  // namespace fav::netlist
