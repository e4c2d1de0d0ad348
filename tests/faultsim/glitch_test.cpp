// Setup-violation (clock- and voltage-glitch) simulator and technique tests:
// per-kind threshold analysis on a netlist with known path depths, the exact
// floating-point boundary of each kind's rule, attack-model validation, and
// the enumerable-fault-space contract (index-stable, chunk-invariant,
// t-major) the exhaustive sweep keys on, and the word-parallel flip sets
// against the scalar ones lane by lane. Properties shared by both kinds are
// written once and run under each kind's test suite.
#include "faultsim/glitch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "gen/builder.h"
#include "scalar_flip_set.h"
#include "util/check.h"

namespace fav::faultsim {
namespace {

using netlist::CellType;
using netlist::LogicSimulator;
using netlist::Netlist;
using netlist::NodeId;

// Two registers with very different path depths:
//   fast: in -> r_fast (arrival 0)
//   slow: in -> NOT^8 -> r_slow (arrival 8 * delay_inv = 8)
// Nominal period = (critical path + setup) * margin = 8.6 * 1.15 ~ 9.89.
// Clock glitch: the slow path misses setup once 8.6 > 9.89 * depth, i.e.
// for depth < ~0.8696; the fast path once 0.6 > 9.89 * depth.
// Voltage glitch: the slow path misses once 8 / (1 - droop) + 0.6 > 9.89,
// i.e. for droop > ~0.1389; the fast path (arrival 0) never misses.
struct TwoPaths {
  Netlist nl;
  NodeId in, r_fast, r_slow;
  TwoPaths() {
    in = nl.add_input("in");
    r_fast = nl.add_dff("r_fast");
    nl.connect_dff(r_fast, in);
    NodeId cur = in;
    for (int i = 0; i < 8; ++i) cur = nl.add_gate(CellType::kNot, {cur});
    r_slow = nl.add_dff("r_slow");
    nl.connect_dff(r_slow, cur);
  }
};

/// `in` driven high: both registers would change 0 -> 1 this cycle.
struct Settled {
  TwoPaths c;
  GlitchSimulator glitch{c.nl};
  LogicSimulator sim{c.nl};
  Settled() {
    sim.set_input("in", true);
    sim.evaluate_comb();
  }
  std::vector<NodeId> flips(TechniqueKind kind, double level) const {
    return oracle::flipped_dffs(glitch, sim, kind, level);
  }
};

/// A level far on the safe side of both registers' thresholds.
double mild(TechniqueKind kind) {
  return kind == TechniqueKind::kClockGlitch ? 0.99 : 0.05;
}
/// A level past the slow register's threshold only.
double moderate(TechniqueKind kind) {
  return kind == TechniqueKind::kClockGlitch ? 0.5 : 0.2;
}

// --- clock glitch: `arrival + setup > period * depth` ----------------------

TEST(ClockGlitchSimulator, DeepGlitchFlipsSlowPathOnly) {
  // Glitched period 0.5 x 9.89 lies between the fast and slow arrivals:
  // only the slow register misses timing, and it flips because its old Q
  // (0) != new D (1).
  const Settled s;
  const auto flips = s.flips(TechniqueKind::kClockGlitch, 0.5);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], s.c.r_slow);
}

TEST(ClockGlitchSimulator, VeryDeepGlitchFlipsEveryChangingRegister) {
  // 0.01 x 9.89 < setup: even the zero-arrival register misses.
  const Settled s;
  EXPECT_EQ(s.flips(TechniqueKind::kClockGlitch, 0.01).size(), 2u);
}

TEST(ClockGlitchSimulator, ThresholdBoundaryIsExact) {
  // Pins the clock rule `arrival + setup > period * depth` to the ulp: at
  // depth (8 + 0.6) / period the product rounds to exactly the slack and
  // the register still meets setup; one ulp shallower it misses.
  const Settled s;
  EXPECT_TRUE(s.flips(TechniqueKind::kClockGlitch, 0.8695652173913044)
                  .empty());
  const auto flips = s.flips(TechniqueKind::kClockGlitch, 0.8695652173913043);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], s.c.r_slow);
}

// --- voltage glitch: `arrival / (1 - droop) + setup > period` --------------

TEST(VoltageGlitchSimulator, ModerateDroopFlipsSlowPathOnly) {
  // 8 / 0.8 + 0.6 = 10.6 > 9.89: the slow register holds its old Q (0),
  // which differs from the new D (1) — a captured error. The fast register
  // (arrival 0) always meets setup, whatever the droop.
  const Settled s;
  const auto flips = s.flips(TechniqueKind::kVoltageGlitch, 0.2);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], s.c.r_slow);
}

TEST(VoltageGlitchSimulator, SevereDroopFlipsEveryChangingSlowRegister) {
  // Even at 99% droop only the slow register can miss: the fast register's
  // D arrives at 0, and 0 / (1 - d) is still 0.
  const Settled s;
  const auto flips = s.flips(TechniqueKind::kVoltageGlitch, 0.99);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], s.c.r_slow);
}

TEST(VoltageGlitchSimulator, ThresholdBoundaryIsExact) {
  // Pins the voltage rule `arrival / (1 - droop) + setup > period` to the
  // ulp. At droop 0.1388589881593111 the register meets setup, although the
  // algebraically equal `arrival > (period - setup) * (1 - droop)` rounds
  // the other way and would flip it; one ulp deeper it misses.
  const Settled s;
  EXPECT_TRUE(s.flips(TechniqueKind::kVoltageGlitch, 0.1388589881593111)
                  .empty());
  const double period = s.glitch.timing().clock_period();
  const double setup = s.glitch.timing().model().setup_time;
  EXPECT_GT(8.0, (period - setup) * (1.0 - 0.1388589881593111));
  const auto flips =
      s.flips(TechniqueKind::kVoltageGlitch, 0.13885898815931114);
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], s.c.r_slow);
}

TEST(GlitchSimulator, RejectsRadiationKind) {
  const Settled s;
  EXPECT_THROW(s.flips(TechniqueKind::kRadiation, 0.5), fav::CheckError);
  EXPECT_THROW(GlitchTechnique(s.glitch, TechniqueKind::kRadiation),
               fav::CheckError);
}

// --- properties shared by both kinds ---------------------------------------
// Each check below takes the kind and runs once per kind, under that kind's
// test suite.

void expect_critical_d_arrival(TechniqueKind kind) {
  // Both kinds' thresholds are measured against the same per-register D
  // arrival; the critical one is the 8-inverter path, which is also the
  // register a moderate glitch of either kind catches.
  const Settled s;
  EXPECT_DOUBLE_EQ(s.glitch.critical_d_arrival(), 8 * TimingModel{}.delay_inv);
  const auto flips = s.flips(kind, moderate(kind));
  ASSERT_EQ(flips.size(), 1u);
  EXPECT_EQ(flips[0], s.c.r_slow);
}

void expect_mild_glitch_never_flips(TechniqueKind kind) {
  const Settled s;
  EXPECT_TRUE(s.flips(kind, mild(kind)).empty());
}

void expect_hold_of_same_value_is_no_error(TechniqueKind kind) {
  // Preload r_slow with the value it would capture anyway: holding it
  // through the glitch is not an error.
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  LogicSimulator sim(c.nl);
  sim.set_input("in", true);
  sim.set_register(c.r_slow, true);
  sim.evaluate_comb();
  EXPECT_TRUE(oracle::flipped_dffs(glitch, sim, kind, moderate(kind)).empty());
}

void expect_invalid_level_throws(TechniqueKind kind) {
  const Settled s;
  EXPECT_THROW(s.flips(kind, 0.0), fav::CheckError);
  EXPECT_THROW(s.flips(kind, 1.0), fav::CheckError);
  EXPECT_THROW(s.flips(kind, -0.3), fav::CheckError);
}

void expect_attack_model_validation(TechniqueKind kind) {
  GlitchAttackModel m(kind);
  EXPECT_EQ(m.kind, kind);
  EXPECT_EQ(m.levels.size(), 4u);
  EXPECT_NO_THROW(m.check_valid());
  EXPECT_EQ(m.t_count(), 50);
  m.levels = {1.5};
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.levels = {};
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.levels = {0.5};
  m.t_max = -1;
  EXPECT_THROW(m.check_valid(), fav::CheckError);
  m.t_max = 49;
  EXPECT_THROW(m.check_valid(30), fav::CheckError);  // range past Tt
  EXPECT_NO_THROW(m.check_valid(60));
}

void expect_technique_rejects_foreign_and_out_of_range_samples(
    TechniqueKind kind) {
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  GlitchTechnique technique(glitch, kind);
  EXPECT_EQ(technique.kind(), kind);
  FaultSample s;
  s.technique = kind;
  s.t = 3;
  s.depth = 0.4;
  EXPECT_NO_THROW(technique.check_sample(s));
  s.depth = 1.0;
  EXPECT_THROW(technique.check_sample(s), fav::CheckError);
  s.depth = 0.4;
  s.technique = TechniqueKind::kRadiation;
  EXPECT_THROW(technique.check_sample(s), fav::CheckError);
  s.technique = kind == TechniqueKind::kClockGlitch
                    ? TechniqueKind::kVoltageGlitch
                    : TechniqueKind::kClockGlitch;
  EXPECT_THROW(technique.check_sample(s), fav::CheckError);
  // A model of the other kind cannot define this technique's space.
  EXPECT_THROW(technique.bind_space(GlitchAttackModel(s.technique)),
               fav::CheckError);
}

void expect_technique_enumerate_without_bound_space_throws(
    TechniqueKind kind) {
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  GlitchTechnique technique(glitch, kind);
  EXPECT_EQ(technique.space_size(), 0u);
  std::vector<FaultSample> out;
  EXPECT_THROW(technique.enumerate(0, 1, out), fav::CheckError);
}

void expect_technique_enumeration_t_major_index_stable_chunk_invariant(
    TechniqueKind kind) {
  TwoPaths c;
  GlitchSimulator glitch(c.nl);
  GlitchTechnique technique(glitch, kind);
  GlitchAttackModel model(kind);
  model.t_min = 2;
  model.t_max = 6;
  model.levels = {0.2, 0.4, 0.6};
  technique.bind_space(model);
  ASSERT_EQ(technique.space_size(), 15u);

  std::vector<FaultSample> whole;
  technique.enumerate(0, 15, whole);
  ASSERT_EQ(whole.size(), 15u);
  for (std::size_t i = 0; i < whole.size(); ++i) {
    // t-major with the level grid innermost, weight exactly 1.
    EXPECT_EQ(whole[i].t, 2 + static_cast<int>(i / 3)) << i;
    EXPECT_EQ(whole[i].depth, model.levels[i % 3]) << i;
    EXPECT_EQ(whole[i].weight, 1.0) << i;
    EXPECT_EQ(whole[i].technique, kind) << i;
  }

  // Chunked enumeration (any chunking) must reproduce the same index ->
  // sample mapping — the contract journaled resume and sharding key on.
  for (const std::uint64_t chunk : {1ull, 4ull, 7ull}) {
    std::vector<FaultSample> piece;
    std::uint64_t index = 0;
    for (std::uint64_t lo = 0; lo < 15; lo += chunk) {
      const std::uint64_t hi = std::min<std::uint64_t>(lo + chunk, 15);
      technique.enumerate(lo, hi, piece);
      ASSERT_EQ(piece.size(), hi - lo);
      for (const FaultSample& s : piece) {
        EXPECT_EQ(s.t, whole[index].t) << "chunk=" << chunk << " i=" << index;
        EXPECT_EQ(s.depth, whole[index].depth)
            << "chunk=" << chunk << " i=" << index;
        ++index;
      }
    }
  }

  std::vector<FaultSample> out;
  EXPECT_THROW(technique.enumerate(10, 16, out), fav::CheckError);
  EXPECT_THROW(technique.enumerate(5, 4, out), fav::CheckError);
}

constexpr TechniqueKind kClock = TechniqueKind::kClockGlitch;
constexpr TechniqueKind kVoltage = TechniqueKind::kVoltageGlitch;

TEST(ClockGlitchSimulator, CriticalDArrival) {
  expect_critical_d_arrival(kClock);
}
TEST(VoltageGlitchSimulator, CriticalDArrival) {
  expect_critical_d_arrival(kVoltage);
}

TEST(ClockGlitchSimulator, NominalPeriodNeverFlips) {
  expect_mild_glitch_never_flips(kClock);
}
TEST(VoltageGlitchSimulator, TinyDroopNeverFlips) {
  expect_mild_glitch_never_flips(kVoltage);
}

TEST(ClockGlitchSimulator, HoldOfSameValueIsNoError) {
  expect_hold_of_same_value_is_no_error(kClock);
}
TEST(VoltageGlitchSimulator, HoldOfSameValueIsNoError) {
  expect_hold_of_same_value_is_no_error(kVoltage);
}

TEST(ClockGlitchSimulator, InvalidPeriodThrows) {
  expect_invalid_level_throws(kClock);
}
TEST(VoltageGlitchSimulator, InvalidDroopThrows) {
  expect_invalid_level_throws(kVoltage);
}

TEST(ClockGlitchAttackModel, Validation) {
  expect_attack_model_validation(kClock);
}
TEST(VoltageGlitchAttackModel, Validation) {
  expect_attack_model_validation(kVoltage);
}

TEST(ClockGlitchTechnique, RejectsForeignAndOutOfRangeSamples) {
  expect_technique_rejects_foreign_and_out_of_range_samples(kClock);
}
TEST(VoltageGlitchTechnique, RejectsForeignAndOutOfRangeSamples) {
  expect_technique_rejects_foreign_and_out_of_range_samples(kVoltage);
}

TEST(ClockGlitchTechnique, EnumerateWithoutBoundSpaceThrows) {
  expect_technique_enumerate_without_bound_space_throws(kClock);
}
TEST(VoltageGlitchTechnique, EnumerateWithoutBoundSpaceThrows) {
  expect_technique_enumerate_without_bound_space_throws(kVoltage);
}

TEST(ClockGlitchTechnique, EnumerationIsTMajorIndexStableAndChunkInvariant) {
  expect_technique_enumeration_t_major_index_stable_chunk_invariant(kClock);
}
TEST(VoltageGlitchTechnique, EnumerationIsTMajorIndexStableAndChunkInvariant) {
  expect_technique_enumeration_t_major_index_stable_chunk_invariant(kVoltage);
}

// --- word-parallel flip sets ------------------------------------------------

// Nine registers behind NOT chains of 0..8 gates, each fed by its own input:
// every register has its own D arrival, so a level splits them into those
// that meet setup and those that miss it.
struct Chains {
  Netlist nl;
  std::vector<NodeId> regs;
  Chains() {
    for (int k = 0; k <= 8; ++k) {
      NodeId cur = nl.add_input("in" + std::to_string(k));
      for (int i = 0; i < k; ++i) cur = nl.add_gate(CellType::kNot, {cur});
      const NodeId r = nl.add_dff("r" + std::to_string(k));
      nl.connect_dff(r, cur);
      regs.push_back(r);
    }
  }
};

TEST(GlitchTechnique, FlipSetBatchMatchesScalarLaneByLane) {
  // Every lane gets its own random inputs and register values (divergent
  // settled states) and a level one ulp either side of some register's
  // misses_setup threshold; flip_set_batch and the one-sample flip_set must
  // equal the scalar oracle per lane.
  const Chains c;
  const GlitchSimulator glitch(c.nl);
  const double period = glitch.timing().clock_period();
  const double setup = glitch.timing().model().setup_time;
  for (const TechniqueKind kind : {kClock, kVoltage}) {
    SCOPED_TRACE(technique_kind_name(kind));
    const GlitchTechnique technique(glitch, kind);
    std::vector<double> levels;
    for (const NodeId r : c.regs) {
      const double arrival = glitch.timing().arrival(c.nl.node(r).fanins[0]);
      const double threshold = kind == TechniqueKind::kClockGlitch
                                   ? (arrival + setup) / period
                                   : 1.0 - arrival / (period - setup);
      if (threshold <= 0.0 || threshold >= 1.0) continue;
      levels.push_back(std::nextafter(threshold, 0.0));
      levels.push_back(std::nextafter(threshold, 1.0));
    }
    ASSERT_GE(levels.size(), 8u);
    std::mt19937 gen(2017);
    std::size_t flips = 0;
    std::size_t held = 0;  // D != Q, yet setup met: no error
    for (const int lanes : {1, 7, 64}) {
      netlist::WordSimulator words(c.nl);
      std::vector<LogicSimulator> scalar;
      scalar.reserve(lanes);
      std::vector<FaultSample> samples(lanes);
      for (int l = 0; l < lanes; ++l) {
        scalar.emplace_back(c.nl);
        for (const NodeId in : c.nl.inputs()) {
          const bool v = gen() & 1;
          scalar[l].set_input(in, v);
          words.set_input_lane(in, l, v);
        }
        for (const NodeId r : c.regs) {
          const bool v = gen() & 1;
          scalar[l].set_register(r, v);
          words.set_register_lane(r, l, v);
        }
        scalar[l].evaluate_comb();
        samples[l].technique = kind;
        samples[l].depth = levels[gen() % levels.size()];
      }
      words.evaluate_comb();
      TechniqueScratch scratch;
      std::vector<std::vector<NodeId>> flipped;
      technique.flip_set_batch(words, scratch, samples, flipped);
      ASSERT_EQ(flipped.size(), static_cast<std::size_t>(lanes));
      for (int l = 0; l < lanes; ++l) {
        const std::vector<NodeId> reference =
            oracle::flip_set(technique, scalar[l], samples[l]);
        EXPECT_EQ(flipped[l], reference) << "lanes " << lanes << " lane " << l;
        std::vector<NodeId> wrapped;
        technique.flip_set(scalar[l], scratch, samples[l], wrapped);
        EXPECT_EQ(wrapped, reference) << "lanes " << lanes << " lane " << l;
        std::size_t changing = 0;
        for (const NodeId r : c.regs) {
          changing += scalar[l].value(c.nl.node(r).fanins[0]) !=
                      scalar[l].value(r);
        }
        flips += reference.size();
        held += changing - reference.size();
      }
    }
    // Both sides of the thresholds were exercised.
    EXPECT_GT(flips, 0u);
    EXPECT_GT(held, 0u);
  }
}

}  // namespace
}  // namespace fav::faultsim
