#include "faultsim/technique.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "gen/builder.h"
#include "netlist/logicsim.h"
#include "util/check.h"

namespace fav::faultsim {
namespace {

using netlist::NodeId;

// An 8-bit adder into 8 registers: a few levels of mixed gates and DFFs.
struct Adder {
  netlist::Netlist nl;
  Adder() {
    gen::Builder bld(nl);
    const auto a = bld.input_word("a", 8);
    const auto b = bld.input_word("b", 8);
    const auto regs = bld.dff_word("r", 8);
    bld.connect_word(regs, bld.add_word(a, b));
  }
};

std::vector<NodeId> listed(std::span<const NodeId> nodes) {
  return {nodes.begin(), nodes.end()};
}

// The per-worker spot table hands out exactly Placement::nodes_within's
// lists: for every candidate center x radius of a bound space, radius 0
// included, and for a center or radius outside that space, which is
// computed on a miss. Each distinct spot is computed once.
TEST(SpotTable, CachedListsEqualNodesWithin) {
  const Adder adder;
  const layout::Placement placement(adder.nl);
  const InjectionSimulator injector(adder.nl);
  AttackModel model;
  model.t_min = 0;
  model.t_max = 1;
  model.candidate_centers = placement.placed_nodes();
  const NodeId outside = model.candidate_centers.back();
  model.candidate_centers.pop_back();
  model.radii = {0.0, 0.5, 1.5, 2.5};
  RadiationTechnique technique(placement, injector);
  technique.bind_space(model);
  std::vector<FaultSample> space;
  technique.enumerate(0, technique.space_size(), space);

  SpotTable table;
  const std::uint64_t spots =
      model.candidate_centers.size() * model.radii.size();
  for (const FaultSample& s : space) {  // two cycles: every spot twice
    EXPECT_EQ(listed(table.struck(placement, s.center, s.radius)),
              placement.nodes_within(s.center, s.radius))
        << "center " << s.center << " radius " << s.radius;
  }
  EXPECT_EQ(table.computed(), spots);

  const auto expect_miss = [&](NodeId center, double radius) {
    const std::uint64_t before = table.computed();
    EXPECT_EQ(listed(table.struck(placement, center, radius)),
              placement.nodes_within(center, radius));
    EXPECT_EQ(table.computed(), before + 1);
    EXPECT_EQ(listed(table.struck(placement, center, radius)),
              placement.nodes_within(center, radius));
    EXPECT_EQ(table.computed(), before + 1);
  };
  expect_miss(outside, 1.5);
  expect_miss(model.candidate_centers[0], 1.0);
  // The key is the radius's bit pattern: -0.0 is its own (valid) spot.
  expect_miss(model.candidate_centers[0], -0.0);

  // A query nodes_within rejects throws every time and leaves no entry.
  const std::uint64_t before = table.computed();
  EXPECT_THROW(table.struck(placement, outside, -1.0), fav::CheckError);
  EXPECT_THROW(table.struck(placement, outside, -1.0), fav::CheckError);
  EXPECT_EQ(table.computed(), before);

  // Another placement of the same netlist starts the table over.
  const layout::Placement wide(adder.nl, 2.0);
  EXPECT_EQ(listed(table.struck(wide, outside, 1.5)),
            wide.nodes_within(outside, 1.5));
  EXPECT_EQ(table.computed(), before + 1);
}

// flip_set_batch reads its struck lists from the scratch's spot table: a
// word of repeated spots computes each once and still matches flip_set lane
// by lane.
TEST(SpotTable, FlipSetBatchReadsTheTable) {
  const Adder adder;
  const layout::Placement placement(adder.nl);
  const InjectionSimulator injector(adder.nl);
  const RadiationTechnique technique(placement, injector);
  netlist::LogicSimulator sim(adder.nl);
  for (const NodeId in : adder.nl.inputs()) sim.set_input(in, in % 3 == 0);
  sim.evaluate_comb();
  netlist::WordSimulator words(adder.nl);
  words.broadcast_from(sim);

  const std::vector<NodeId>& placed = placement.placed_nodes();
  std::vector<FaultSample> samples(64);
  std::set<std::pair<NodeId, double>> distinct;
  for (std::size_t l = 0; l < samples.size(); ++l) {
    samples[l].center = placed[(l * 7) % 9];
    samples[l].radius = l % 2 == 0 ? 1.5 : 2.5;
    samples[l].strike_frac = 0.25;
    distinct.insert({samples[l].center, samples[l].radius});
  }
  TechniqueScratch scratch;
  std::vector<std::vector<NodeId>> flipped;
  technique.flip_set_batch(words, scratch, samples, flipped);
  EXPECT_EQ(scratch.spots.computed(), distinct.size());
  TechniqueScratch oracle;
  for (std::size_t l = 0; l < samples.size(); ++l) {
    std::vector<NodeId> expected;
    technique.flip_set(sim, oracle, samples[l], expected);
    EXPECT_EQ(flipped[l], expected) << "lane " << l;
  }
  technique.flip_set_batch(words, scratch, samples, flipped);
  EXPECT_EQ(scratch.spots.computed(), distinct.size());
}

}  // namespace
}  // namespace fav::faultsim
