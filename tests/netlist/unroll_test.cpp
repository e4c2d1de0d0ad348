#include "netlist/unroll.h"

#include <gtest/gtest.h>

#include "netlist/logicsim.h"
#include "util/check.h"

namespace fav::netlist {
namespace {

// 2-bit counter shared with the logicsim tests.
struct Counter {
  Netlist nl;
  NodeId b0, b1;
  Counter() {
    b0 = nl.add_dff("b0");
    b1 = nl.add_dff("b1");
    nl.connect_dff(b0, nl.add_gate(CellType::kNot, {b0}));
    nl.connect_dff(b1, nl.add_gate(CellType::kXor, {b1, b0}));
  }
};

TEST(Unroller, UnrolledIsCombinational) {
  Counter c;
  Unroller u(c.nl, 4);
  EXPECT_EQ(u.unrolled().dffs().size(), 0u);
  EXPECT_NO_THROW(u.unrolled().validate());
}

TEST(Unroller, FrameZeroStateIsInput) {
  Counter c;
  Unroller u(c.nl, 2);
  const NodeId init0 = u.initial_state_input(c.b0);
  EXPECT_EQ(u.unrolled().node(init0).type, CellType::kInput);
}

TEST(Unroller, MatchesSequentialSimulation) {
  Counter c;
  constexpr int kFrames = 5;
  Unroller u(c.nl, kFrames);

  // Sequential reference.
  LogicSimulator seq(c.nl);
  std::vector<std::pair<bool, bool>> expected;
  for (int f = 0; f < kFrames; ++f) {
    seq.evaluate_comb();
    expected.emplace_back(seq.value(c.b0), seq.value(c.b1));
    seq.clock_edge();
  }

  // Unrolled evaluation: initial state 00.
  LogicSimulator comb(u.unrolled());
  comb.set_input(u.initial_state_input(c.b0), false);
  comb.set_input(u.initial_state_input(c.b1), false);
  comb.evaluate_comb();
  for (int f = 0; f < kFrames; ++f) {
    EXPECT_EQ(comb.value(u.at(c.b0, f)), expected[static_cast<std::size_t>(f)].first)
        << "frame " << f;
    EXPECT_EQ(comb.value(u.at(c.b1, f)), expected[static_cast<std::size_t>(f)].second)
        << "frame " << f;
  }
}

TEST(Unroller, NonZeroInitialState) {
  Counter c;
  Unroller u(c.nl, 3);
  LogicSimulator comb(u.unrolled());
  comb.set_input(u.initial_state_input(c.b0), true);
  comb.set_input(u.initial_state_input(c.b1), true);  // start at 3
  comb.evaluate_comb();
  // 3 -> 0 -> 1
  EXPECT_TRUE(comb.value(u.at(c.b0, 0)));
  EXPECT_TRUE(comb.value(u.at(c.b1, 0)));
  EXPECT_FALSE(comb.value(u.at(c.b0, 1)));
  EXPECT_FALSE(comb.value(u.at(c.b1, 1)));
  EXPECT_TRUE(comb.value(u.at(c.b0, 2)));
  EXPECT_FALSE(comb.value(u.at(c.b1, 2)));
}

TEST(Unroller, PrimaryInputsPerFrame) {
  Netlist nl;
  const NodeId in = nl.add_input("x");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, in);

  Unroller u(nl, 3);
  LogicSimulator sim(u.unrolled());
  sim.set_input("x@f0", true);
  sim.set_input("x@f1", false);
  sim.set_input("x@f2", true);
  sim.set_input(u.initial_state_input(r), false);
  sim.evaluate_comb();
  EXPECT_FALSE(sim.value(u.at(r, 0)));
  EXPECT_TRUE(sim.value(u.at(r, 1)));   // latched x@f0
  EXPECT_FALSE(sim.value(u.at(r, 2)));  // latched x@f1
}

TEST(Unroller, FrameOutOfRangeThrows) {
  Counter c;
  Unroller u(c.nl, 2);
  EXPECT_THROW(u.at(c.b0, 2), fav::CheckError);
  EXPECT_THROW(u.at(c.b0, -1), fav::CheckError);
}

TEST(Unroller, ZeroFramesThrows) {
  Counter c;
  EXPECT_THROW(Unroller(c.nl, 0), fav::CheckError);
}

}  // namespace
}  // namespace fav::netlist
