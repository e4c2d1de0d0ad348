#include "netlist/logicsim.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace fav::netlist {
namespace {

// A 2-bit counter: classic sequential sanity check.
struct Counter {
  Netlist nl;
  NodeId b0, b1;
  Counter() {
    b0 = nl.add_dff("b0");
    b1 = nl.add_dff("b1");
    const NodeId n0 = nl.add_gate(CellType::kNot, {b0});
    const NodeId t1 = nl.add_gate(CellType::kXor, {b1, b0});
    nl.connect_dff(b0, n0);
    nl.connect_dff(b1, t1);
    nl.set_output("b0", b0);
    nl.set_output("b1", b1);
  }
};

TEST(LogicSimulator, CombEvaluation) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId y = nl.add_gate(CellType::kXor, {a, b}, "y");
  (void)y;
  nl.set_output("y", y);

  LogicSimulator sim(nl);
  for (bool va : {false, true}) {
    for (bool vb : {false, true}) {
      sim.set_input("a", va);
      sim.set_input("b", vb);
      sim.evaluate_comb();
      EXPECT_EQ(sim.output("y"), va != vb);
    }
  }
}

TEST(LogicSimulator, ConstantsInitialized) {
  Netlist nl;
  const NodeId c1 = nl.add_const(true);
  const NodeId c0 = nl.add_const(false);
  const NodeId y = nl.add_gate(CellType::kAnd, {c1, c0});
  nl.set_output("y", y);
  nl.set_output("one", c1);
  LogicSimulator sim(nl);
  sim.evaluate_comb();
  EXPECT_FALSE(sim.output("y"));
  EXPECT_TRUE(sim.output("one"));
}

TEST(LogicSimulator, CounterCountsModulo4) {
  Counter c;
  LogicSimulator sim(c.nl);
  int expected = 0;
  for (int cycle = 0; cycle < 12; ++cycle) {
    sim.evaluate_comb();
    const int val = (sim.value(c.b1) ? 2 : 0) + (sim.value(c.b0) ? 1 : 0);
    EXPECT_EQ(val, expected) << "cycle " << cycle;
    sim.clock_edge();
    expected = (expected + 1) % 4;
  }
}

TEST(LogicSimulator, DffChainShiftsNotRaces) {
  // r1 -> r2 directly; after one edge r2 must hold r1's OLD value.
  Netlist nl;
  const NodeId in = nl.add_input("in");
  const NodeId r1 = nl.add_dff("r1");
  const NodeId r2 = nl.add_dff("r2");
  nl.connect_dff(r1, in);
  nl.connect_dff(r2, r1);

  LogicSimulator sim(nl);
  sim.set_input("in", true);
  sim.step();
  EXPECT_TRUE(sim.value(r1));
  EXPECT_FALSE(sim.value(r2));  // old r1 value (0) latched, not the new one
  sim.set_input("in", false);
  sim.step();
  EXPECT_FALSE(sim.value(r1));
  EXPECT_TRUE(sim.value(r2));
}

TEST(LogicSimulator, RegisterStateRoundTrip) {
  Counter c;
  LogicSimulator sim(c.nl);
  sim.step();
  sim.step();
  sim.step();  // counter = 3
  const auto snapshot = sim.register_state();

  LogicSimulator sim2(c.nl);
  sim2.load_register_state(snapshot);
  sim2.evaluate_comb();
  EXPECT_EQ(sim2.value(c.b0), sim.value(c.b0));
  EXPECT_EQ(sim2.value(c.b1), sim.value(c.b1));
}

TEST(LogicSimulator, LoadWrongSizeThrows) {
  Counter c;
  LogicSimulator sim(c.nl);
  EXPECT_THROW(sim.load_register_state({true}), CheckError);
}

TEST(LogicSimulator, SetRegisterInjectsBitError) {
  Counter c;
  LogicSimulator sim(c.nl);
  sim.step();  // counter = 1
  sim.set_register(c.b1, true);  // inject: counter becomes 3
  sim.evaluate_comb();
  EXPECT_TRUE(sim.value(c.b1));
  EXPECT_TRUE(sim.value(c.b0));
}

TEST(LogicSimulator, SetRegisterOnGateThrows) {
  Netlist nl;
  const NodeId a = nl.add_input("a");
  const NodeId g = nl.add_gate(CellType::kNot, {a});
  nl.set_output("y", g);
  LogicSimulator sim(nl);
  EXPECT_THROW(sim.set_register(g, true), CheckError);
  EXPECT_THROW(sim.set_input(g, true), CheckError);
}

TEST(WordSimulator, BroadcastMatchesScalarEverywhere) {
  Counter c;
  LogicSimulator sim(c.nl);
  sim.step();
  sim.step();  // counter = 2
  sim.evaluate_comb();
  WordSimulator words(c.nl);
  words.broadcast_from(sim);
  for (NodeId id = 0; id < c.nl.node_count(); ++id) {
    const std::uint64_t expect = sim.value(id) ? ~std::uint64_t{0} : 0;
    EXPECT_EQ(words.word(id), expect) << "node " << id;
  }
}

TEST(WordSimulator, LanesStepIndependentlyLikeScalar) {
  Counter c;
  WordSimulator words(c.nl);
  std::vector<LogicSimulator> scalar;
  for (int l = 0; l < 64; ++l) {
    scalar.emplace_back(c.nl);
    // Lane l starts at counter state l % 4.
    scalar[l].set_register(c.b0, (l & 1) != 0);
    scalar[l].set_register(c.b1, (l & 2) != 0);
    words.set_register_lane(c.b0, l, (l & 1) != 0);
    words.set_register_lane(c.b1, l, (l & 2) != 0);
  }
  for (int cycle = 0; cycle < 5; ++cycle) {
    words.evaluate_comb();
    for (int l = 0; l < 64; ++l) {
      scalar[l].evaluate_comb();
      for (NodeId id = 0; id < c.nl.node_count(); ++id)
        ASSERT_EQ(words.value(id, l), scalar[l].value(id))
            << "cycle " << cycle << " lane " << l << " node " << id;
      scalar[l].clock_edge();
    }
    words.clock_edge();
  }
}

TEST(WordSimulator, ConstantsBroadcastToAllLanes) {
  Netlist nl;
  const NodeId c1 = nl.add_const(true);
  const NodeId c0 = nl.add_const(false);
  const NodeId y = nl.add_gate(CellType::kOr, {c0, c1});
  nl.set_output("y", y);
  WordSimulator words(nl);
  words.evaluate_comb();
  EXPECT_EQ(words.word(c1), ~std::uint64_t{0});
  EXPECT_EQ(words.word(c0), std::uint64_t{0});
  EXPECT_EQ(words.word(y), ~std::uint64_t{0});
}

// 150 inputs: two full 64-node blocks and a partial one.
Netlist wide_netlist() {
  Netlist nl;
  for (int i = 0; i < 150; ++i) nl.add_input("i" + std::to_string(i));
  return nl;
}

BitVector random_image(std::size_t size, Rng& rng) {
  BitVector image(size);
  for (std::size_t id = 0; id < size; ++id) {
    image.set(id, (rng.next() & 1) != 0);
  }
  return image;
}

TEST(WordSimulator, LoadLanesGathersEachLaneFromItsImage) {
  const Netlist nl = wide_netlist();
  Rng rng(11);
  std::vector<BitVector> images;
  for (int k = 0; k < 5; ++k) images.push_back(random_image(150, rng));
  WordSimulator words(nl);
  for (const std::size_t lanes : {2u, 37u, 64u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    std::vector<const BitVector*> lane_images;
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_images.push_back(&images[(l * 7) % images.size()]);
    }
    words.load_lanes(lane_images);
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      for (int l = 0; l < 64; ++l) {
        const bool expect = static_cast<std::size_t>(l) < lanes &&
                            lane_images[l]->test(id);
        ASSERT_EQ(words.value(id, l), expect)
            << "node " << id << " lane " << l;
      }
    }
  }
}

TEST(WordSimulator, LoadLanesFromOneImageIsARowCopy) {
  const Netlist nl = wide_netlist();
  Rng rng(12);
  const BitVector image = random_image(150, rng);
  WordSimulator words(nl);
  for (const std::size_t lanes : {5u, 64u}) {
    const std::vector<const BitVector*> lane_images(lanes, &image);
    words.load_lanes(lane_images);
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    for (NodeId id = 0; id < nl.node_count(); ++id) {
      EXPECT_EQ(words.word(id), image.test(id) ? mask : 0) << "node " << id;
    }
  }
}

TEST(WordSimulator, LoadLanesRejectsBadShapes) {
  const Netlist nl = wide_netlist();
  WordSimulator words(nl);
  const BitVector image(150);
  const BitVector short_image(149);
  EXPECT_THROW(words.load_lanes({}), CheckError);
  const std::vector<const BitVector*> too_many(65, &image);
  EXPECT_THROW(words.load_lanes(too_many), CheckError);
  const std::vector<const BitVector*> mismatch{&image, &short_image};
  EXPECT_THROW(words.load_lanes(mismatch), CheckError);
}

}  // namespace
}  // namespace fav::netlist
