#include "faultsim/injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netlist/logicsim.h"
#include "scalar_flip_set.h"

namespace fav::faultsim {
namespace {

using netlist::CellType;
using netlist::LogicSimulator;
using netlist::Netlist;
using netlist::NodeId;

// Inverter chain of `depth` gates into a DFF: in -> NOT^depth -> r.
struct Chain {
  Netlist nl;
  NodeId in;
  std::vector<NodeId> gates;
  NodeId r;
  explicit Chain(int depth) {
    in = nl.add_input("in");
    NodeId cur = in;
    for (int i = 0; i < depth; ++i) {
      cur = nl.add_gate(CellType::kNot, {cur}, "g" + std::to_string(i));
      gates.push_back(cur);
    }
    r = nl.add_dff("r");
    nl.connect_dff(r, cur);
  }
};

// inject_batch reads each lane's struck list through a view.
std::vector<std::span<const NodeId>> views(
    const std::vector<std::vector<NodeId>>& lists) {
  return {lists.begin(), lists.end()};
}

LogicSimulator settled(const Netlist& nl) {
  LogicSimulator sim(nl);
  sim.evaluate_comb();
  return sim;
}

TEST(InjectionSimulator, NoStrikeIsMasked) {
  Chain c(5);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  const auto result = oracle::inject(inj, sim, {});
  EXPECT_TRUE(result.masked());
  EXPECT_EQ(result.struck_gates, 0u);
  EXPECT_EQ(result.struck_dffs, 0u);
}

TEST(InjectionSimulator, DirectDffStrikeAlwaysFlips) {
  Chain c(5);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  const std::vector<NodeId> struck = {c.r};
  const auto result = oracle::inject(inj, sim, struck, /*strike_time=*/0.0);
  ASSERT_EQ(result.flipped_dffs.size(), 1u);
  EXPECT_EQ(result.flipped_dffs[0], c.r);
  EXPECT_EQ(result.struck_dffs, 1u);
  EXPECT_EQ(result.direct_flips, 1u);
  EXPECT_EQ(result.latched_flips, 0u);
}

TEST(InjectionSimulator, StrikeNearClockEdgeLatches) {
  Chain c(5);
  const TimingModel tm;
  InjectionSimulator inj(c.nl, tm);
  const LogicSimulator sim = settled(c.nl);
  // Strike the first gate so the pulse arrives at the D input right around
  // the latching window: choose strike_time so that
  // start + 4*delay_inv hits window_lo.
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - 4 * tm.delay_inv - 0.1;
  const std::vector<NodeId> struck = {c.gates[0]};
  const auto result = oracle::inject(inj, sim, struck, strike);
  ASSERT_EQ(result.flipped_dffs.size(), 1u);
  EXPECT_EQ(result.flipped_dffs[0], c.r);
  EXPECT_EQ(result.latched_flips, 1u);
  EXPECT_EQ(result.struck_gates, 1u);
}

TEST(InjectionSimulator, LateStrikeMissesWindow) {
  Chain c(5);
  const TimingModel tm;
  InjectionSimulator inj(c.nl, tm);
  const LogicSimulator sim = settled(c.nl);
  // Pulse arrives entirely after the hold window closes.
  const double window_hi = inj.timing().clock_period() + tm.hold_time;
  const double strike = window_hi - 4 * tm.delay_inv + 0.1;
  const std::vector<NodeId> struck = {c.gates[0]};
  const auto result = oracle::inject(inj, sim, struck, strike);
  EXPECT_TRUE(result.masked());
}

TEST(InjectionSimulator, EarlyStrikeDiesBeforeWindow) {
  // Long chain: generous slack between pulse arrival and the clock edge.
  Chain c(30);
  TimingModel tm;
  tm.attenuation = 0.0;  // isolate temporal masking from electrical
  InjectionSimulator inj(c.nl, tm);
  const LogicSimulator sim = settled(c.nl);
  // Strike the last gate early: pulse [29+1, +3] = [30, 33]; window starts at
  // (30 + 0.6) * 1.15 - 0.6 ≈ 34.6 — the pulse is long gone.
  const std::vector<NodeId> struck = {c.gates[29]};
  const auto result = oracle::inject(inj, sim, struck, /*strike_time=*/0.0);
  EXPECT_TRUE(result.masked());
}

TEST(InjectionSimulator, ElectricalMaskingKillsNarrowPulses) {
  // With default attenuation 0.15 and width 3.0, a pulse survives at most
  // (3.0 - 0.5) / 0.15 ≈ 16 stages. A 25-deep chain masks it regardless of
  // timing.
  Chain c(25);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  bool any_flip = false;
  for (double frac : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    const auto result =
        oracle::inject(inj, sim, std::vector<NodeId>{c.gates[0]},
                       frac * inj.timing().clock_period());
    any_flip |= !result.masked();
  }
  EXPECT_FALSE(any_flip);
}

TEST(InjectionSimulator, LogicalMaskingByControllingSideInput) {
  // glitch -> AND(g, side); side = 0 masks, side = 1 sensitizes.
  Netlist nl;
  const NodeId in = nl.add_input("in");
  const NodeId side = nl.add_input("side");
  const NodeId g1 = nl.add_gate(CellType::kNot, {in}, "g1");
  const NodeId g2 = nl.add_gate(CellType::kAnd, {g1, side}, "g2");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, g2);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  // Aim the pulse at the window through 1 AND delay.
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - tm.delay_and_or - 0.1;

  LogicSimulator sim(nl);
  sim.set_input("side", false);
  sim.evaluate_comb();
  EXPECT_TRUE(oracle::inject(inj, sim, std::vector<NodeId>{g1}, strike)
                  .masked());

  sim.set_input("side", true);
  sim.evaluate_comb();
  EXPECT_FALSE(oracle::inject(inj, sim, std::vector<NodeId>{g1}, strike)
                  .masked());
}

TEST(InjectionSimulator, MuxSelectGlitchNeedsDifferingData) {
  Netlist nl;
  const NodeId sel = nl.add_input("sel");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId selbuf = nl.add_gate(CellType::kBuf, {sel}, "selbuf");
  const NodeId m = nl.add_gate(CellType::kMux, {selbuf, a, b}, "m");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, m);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - tm.delay_mux - 0.05;

  LogicSimulator sim(nl);
  sim.set_input("a", true);
  sim.set_input("b", true);  // equal data: select glitch is invisible
  sim.evaluate_comb();
  EXPECT_TRUE(oracle::inject(inj, sim, std::vector<NodeId>{selbuf}, strike)
                  .masked());

  sim.set_input("b", false);  // differing data: glitch reaches the output
  sim.evaluate_comb();
  EXPECT_FALSE(oracle::inject(inj, sim, std::vector<NodeId>{selbuf}, strike)
                  .masked());
}

TEST(InjectionSimulator, MuxUnselectedDataPinMasked) {
  Netlist nl;
  const NodeId sel = nl.add_input("sel");
  const NodeId a = nl.add_input("a");
  const NodeId b = nl.add_input("b");
  const NodeId abuf = nl.add_gate(CellType::kBuf, {a}, "abuf");
  const NodeId m = nl.add_gate(CellType::kMux, {sel, abuf, b}, "m");
  const NodeId r = nl.add_dff("r");
  nl.connect_dff(r, m);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  const double strike = window_lo - tm.delay_mux - 0.05;

  LogicSimulator sim(nl);
  sim.set_input("sel", true);  // selects b: glitch on a-path is masked
  sim.evaluate_comb();
  EXPECT_TRUE(oracle::inject(inj, sim, std::vector<NodeId>{abuf}, strike)
                  .masked());

  sim.set_input("sel", false);
  sim.evaluate_comb();
  EXPECT_FALSE(oracle::inject(inj, sim, std::vector<NodeId>{abuf}, strike)
                  .masked());
}

TEST(InjectionSimulator, FanoutReachesMultipleRegisters) {
  // One struck gate fans out to two DFFs: both can flip.
  Netlist nl;
  const NodeId in = nl.add_input("in");
  const NodeId g = nl.add_gate(CellType::kBuf, {in}, "g");
  const NodeId r1 = nl.add_dff("r1");
  const NodeId r2 = nl.add_dff("r2");
  nl.connect_dff(r1, g);
  nl.connect_dff(r2, g);

  const TimingModel tm;
  InjectionSimulator inj(nl, tm);
  const double window_lo = inj.timing().clock_period() - tm.setup_time;
  LogicSimulator sim(nl);
  sim.evaluate_comb();
  const auto result =
      oracle::inject(inj, sim, std::vector<NodeId>{g}, window_lo - 0.05);
  EXPECT_EQ(result.flipped_dffs.size(), 2u);
  EXPECT_EQ(result.latched_flips, 2u);
}

TEST(InjectionSimulator, DeterministicForSameInputs) {
  Chain c(8);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  const std::vector<NodeId> struck = {c.gates[0], c.gates[3], c.r};
  const auto r1 = oracle::inject(inj, sim, struck, 2.0);
  const auto r2 = oracle::inject(inj, sim, struck, 2.0);
  EXPECT_EQ(r1.flipped_dffs, r2.flipped_dffs);
  EXPECT_EQ(r1.struck_gates, r2.struck_gates);
}

TEST(InjectionSimulator, NegativeStrikeTimeThrows) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  const LogicSimulator sim = settled(c.nl);
  EXPECT_THROW(oracle::inject(inj, sim, std::vector<NodeId>{c.gates[0]}, -1.0),
               fav::CheckError);
}

TEST(InjectionSimulator, AddPulseMergesTransitively) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  std::vector<Pulse> list;
  oracle::add_pulse(inj, list, {0.0, 1.0});
  oracle::add_pulse(inj, list, {2.0, 1.0});
  ASSERT_EQ(list.size(), 2u);  // disjoint so far
  // [0.8, 2.2] bridges both: its union with [0, 1] is [0, 2.2], which in
  // turn overlaps [2, 3]. A single merge pass stopped there and left two
  // overlapping entries on the list; the merge must rescan until stable.
  oracle::add_pulse(inj, list, {0.8, 1.4});
  ASSERT_EQ(list.size(), 1u);
  EXPECT_DOUBLE_EQ(list[0].start, 0.0);
  EXPECT_DOUBLE_EQ(list[0].width, 3.0);
}

TEST(InjectionSimulator, AddPulseKeepsListDisjointAndCapped) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  std::mt19937 gen(7);
  std::uniform_real_distribution<double> start(0.0, 20.0);
  std::uniform_real_distribution<double> width(0.1, 4.0);
  std::vector<Pulse> list;
  const auto cap = static_cast<std::size_t>(inj.params().max_pulses_per_node);
  for (int i = 0; i < 200; ++i) {
    oracle::add_pulse(inj, list, {start(gen), width(gen)});
    ASSERT_LE(list.size(), cap);
    for (std::size_t a = 0; a < list.size(); ++a) {
      for (std::size_t b = a + 1; b < list.size(); ++b) {
        const bool overlap =
            list[a].start <= list[b].start + list[b].width &&
            list[b].start <= list[a].start + list[a].width;
        ASSERT_FALSE(overlap) << "entries " << a << " and " << b
                              << " overlap after insertion " << i;
      }
    }
  }
}

// inject_batch stages each lane's list in a fixed slot of
// max_pulses_per_node entries. Random pulse sequences fed to the slot insert
// and to the vector add_pulse must leave the same entries, in the same
// order, after every insert, at every cap. Starts on a half-unit grid and
// widths from a short menu make touching pulses, exact width ties and full
// lists common; an occasional wide pulse bridges several entries at once.
TEST(InjectionSimulator, FixedSlotStagingMatchesAddPulse) {
  Chain c(3);
  std::mt19937 gen(2503);
  static constexpr double kWidths[] = {0.25, 0.5, 0.75, 1.0};
  int transitive_merges = 0;
  int evictions = 0;
  int tied_evictions = 0;
  for (int cap = 1; cap <= 6; ++cap) {
    TransientParams tp;
    tp.max_pulses_per_node = cap;
    InjectionSimulator inj(c.nl, {}, tp);
    for (int seq = 0; seq < 200; ++seq) {
      std::vector<Pulse> list;
      std::vector<Pulse> slot(static_cast<std::size_t>(cap));
      std::uint32_t count = 0;
      for (int i = 0; i < 24; ++i) {
        SCOPED_TRACE("cap " + std::to_string(cap) + " insert " +
                     std::to_string(i));
        Pulse p{0.5 * static_cast<double>(gen() % 40),
                kWidths[gen() % std::size(kWidths)]};
        if (gen() % 8 == 0) p.width = 2.0 + static_cast<double>(gen() % 6);
        const std::vector<Pulse> before = list;
        oracle::add_pulse(inj, list, p);
        inj.add_pulse(slot.data(), count, p);
        ASSERT_EQ(count, list.size());
        for (std::size_t k = 0; k < list.size(); ++k) {
          ASSERT_EQ(slot[k].start, list[k].start) << "entry " << k;
          ASSERT_EQ(slot[k].width, list[k].width) << "entry " << k;
        }
        // Two or more entries absorbed: the list shrank.
        if (list.size() < before.size()) ++transitive_merges;
        const auto overlaps = [&](const Pulse& q) {
          return p.start <= q.start + q.width && q.start <= p.start + p.width;
        };
        if (static_cast<int>(before.size()) < cap ||
            std::any_of(before.begin(), before.end(), overlaps)) {
          continue;
        }
        // A full list and no merge: the pulse evicts the first narrowest
        // entry if it is wider.
        const auto narrowest = std::min_element(
            before.begin(), before.end(),
            [](const Pulse& a, const Pulse& b) { return a.width < b.width; });
        if (narrowest->width < p.width) {
          ++evictions;
          const auto ties =
              std::count_if(before.begin(), before.end(), [&](const Pulse& q) {
                return q.width == narrowest->width;
              });
          if (ties > 1) ++tied_evictions;
        }
      }
    }
  }
  // The sequences must reach every branch of the policy.
  EXPECT_GT(transitive_merges, 0);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(tied_evictions, 0);
}

// Random mixed-gate netlist: 3 inputs, 3 DFFs, `n_gates` gates whose fanins
// are drawn from everything built before them. With `observe_all`, one more
// DFF latches every gate's net, so a flip set shows every net's pulses at
// the clock edge.
struct RandomNetlist {
  Netlist nl;
  std::vector<NodeId> gates;
  std::vector<NodeId> dffs;
  RandomNetlist(std::mt19937& gen, int n_gates, bool observe_all) {
    std::vector<NodeId> pool;
    for (int i = 0; i < 3; ++i)
      pool.push_back(nl.add_input("in" + std::to_string(i)));
    for (int i = 0; i < 3; ++i) {
      dffs.push_back(nl.add_dff("r" + std::to_string(i)));
      pool.push_back(dffs.back());
    }
    static constexpr CellType kTypes[] = {
        CellType::kBuf, CellType::kNot,  CellType::kAnd,
        CellType::kOr,  CellType::kNand, CellType::kNor,
        CellType::kXor, CellType::kXnor, CellType::kMux};
    for (int i = 0; i < n_gates; ++i) {
      const CellType t = kTypes[gen() % std::size(kTypes)];
      std::vector<NodeId> fanins;
      for (int a = 0; a < netlist::cell_arity(t); ++a)
        fanins.push_back(pool[gen() % pool.size()]);
      gates.push_back(
          nl.add_gate(t, std::move(fanins), "g" + std::to_string(i)));
      pool.push_back(gates.back());
    }
    for (NodeId r : dffs) nl.connect_dff(r, gates[gen() % gates.size()]);
    if (!observe_all) return;
    for (std::size_t i = 0; i < gates.size(); ++i) {
      nl.connect_dff(nl.add_dff("o" + std::to_string(i)), gates[i]);
    }
  }
};

// Random mixed-gate netlists with per-lane divergent inputs, registers,
// struck sets and strike times: inject_batch must reproduce the scalar
// inject() flip set lane by lane, for every pulse cap and seed width. The
// last trial of each setting strikes the same gates in all 64 lanes at one
// instant, like a word of an exhaustive t-major sweep, so reconvergent
// pulses pile up and the cap, eviction and transitive merge all run, and
// every gate's net is latched so a wrong list shows in the flip set. The
// scratch is reused across trials with different node counts to exercise
// its shrink/grow path too.
TEST(InjectionSimulator, InjectBatchMatchesScalarLaneByLane) {
  std::mt19937 gen(1234);
  BatchInjectionScratch scratch;
  for (const int cap : {1, 2, 4, 6}) {
    for (const double width : {3.0, 8.0}) {
      TransientParams tp;
      tp.max_pulses_per_node = cap;
      tp.initial_width = width;
      for (int trial = 0; trial < 6; ++trial) {
        const bool clustered = trial == 5;
        RandomNetlist rn(gen, clustered ? 128 : 24 + 8 * trial, clustered);
        const Netlist& nl = rn.nl;
        InjectionSimulator inj(nl, {}, tp);
        const double period = inj.timing().clock_period();
        std::vector<NodeId> candidates = rn.gates;
        candidates.insert(candidates.end(), rn.dffs.begin(), rn.dffs.end());

        const int lanes = trial == 0 ? 1 : (trial == 1 ? 7 : 64);
        netlist::WordSimulator words(nl);
        std::vector<LogicSimulator> scalar;
        scalar.reserve(lanes);
        std::vector<std::vector<NodeId>> struck(lanes);
        std::vector<double> strike(lanes);
        std::vector<NodeId> shared_struck;
        for (int k = 0; k < 32; ++k)
          shared_struck.push_back(rn.gates[gen() % rn.gates.size()]);
        const double shared_strike = 0.7 * period;
        for (int l = 0; l < lanes; ++l) {
          scalar.emplace_back(nl);
          for (NodeId in : nl.inputs()) {
            const bool v = gen() & 1;
            scalar[l].set_input(in, v);
            words.set_input_lane(in, l, v);
          }
          for (NodeId r : nl.dffs()) {
            const bool v = gen() & 1;
            scalar[l].set_register(r, v);
            words.set_register_lane(r, l, v);
          }
          scalar[l].evaluate_comb();
          if (clustered) {
            struck[l] = shared_struck;
            strike[l] = shared_strike;
            continue;
          }
          const std::size_t n_struck = gen() % 5;
          for (std::size_t k = 0; k < n_struck; ++k)
            struck[l].push_back(candidates[gen() % candidates.size()]);
          strike[l] = static_cast<double>(gen() % 1000) / 1000.0 * period;
        }
        words.evaluate_comb();

        std::vector<std::vector<NodeId>> flipped;
        inj.inject_batch(words, views(struck), strike, scratch, flipped);
        ASSERT_EQ(flipped.size(), static_cast<std::size_t>(lanes));
        for (int l = 0; l < lanes; ++l) {
          const auto ref = oracle::inject(inj, scalar[l], struck[l], strike[l]);
          EXPECT_EQ(flipped[l], ref.flipped_dffs)
              << "cap " << cap << " width " << width << " trial " << trial
              << " lane " << l;
        }
      }
    }
  }
}

// Two disjoint cones, in0 -> BUF^5 -> r0 and in1 -> BUF^7 -> r1: the sweep
// visits only the gates a pulse reaches, so a strike in one cone never
// visits the other.
TEST(InjectionSimulator, InjectBatchVisitsOnlyTheStruckCone) {
  Netlist nl;
  std::vector<std::vector<NodeId>> cones(2);
  for (int c = 0; c < 2; ++c) {
    NodeId cur = nl.add_input("in" + std::to_string(c));
    for (int i = 0; i < 5 + 2 * c; ++i) {
      cur = nl.add_gate(CellType::kBuf, {cur},
                        "c" + std::to_string(c) + "_" + std::to_string(i));
      cones[c].push_back(cur);
    }
    const NodeId r = nl.add_dff("r" + std::to_string(c));
    nl.connect_dff(r, cur);
  }
  InjectionSimulator inj(nl);
  netlist::WordSimulator words(nl);
  words.broadcast_from(settled(nl));
  const LogicSimulator sim = settled(nl);
  BatchInjectionScratch scratch;
  std::vector<std::vector<NodeId>> flipped;
  const auto sweep = [&](const std::vector<std::vector<NodeId>>& struck) {
    const std::vector<double> strike(struck.size(), 0.0);
    inj.inject_batch(words, views(struck), strike, scratch, flipped);
    for (std::size_t l = 0; l < struck.size(); ++l) {
      EXPECT_EQ(flipped[l],
                oracle::inject(inj, sim, struck[l], 0.0).flipped_dffs);
    }
    return scratch.visited();
  };
  EXPECT_EQ(scratch.visited(), 0u);
  // Every lane strikes the head of cone 0: its 5 gates, none of cone 1's.
  EXPECT_EQ(sweep(std::vector<std::vector<NodeId>>(64, {cones[0][0]})), 5u);
  EXPECT_EQ(sweep({{cones[1][0]}}), 7u);
  // A strike mid-cone visits only the gates downstream of it.
  EXPECT_EQ(sweep({{cones[1][4]}, {}}), 3u);
  EXPECT_EQ(sweep({{cones[0][0]}, {cones[1][0]}}), 12u);
  EXPECT_EQ(sweep({{}}), 0u);
}

// List order is part of the pulse policy: at a full list, eviction replaces
// the first of equally narrow entries. N = XOR(P, Q) gets two disjoint
// pulses of equal width, P's first. C = XOR(N, R) takes both, then R's
// wider pulse evicts the first, P's, and Q's pulse is kept and reaches r
// inside the latching window. A batch sweep that lost a lane's list order
// would evict Q's pulse instead and miss the flip.
TEST(InjectionSimulator, InjectBatchKeepsEachLanesPulseOrder) {
  Netlist nl;
  const auto chain = [&](const std::string& in, int depth) {
    NodeId cur = nl.add_input(in);
    for (int i = 0; i < depth; ++i) {
      cur = nl.add_gate(CellType::kBuf, {cur}, in + "_" + std::to_string(i));
    }
    return cur;
  };
  const NodeId p = chain("p", 3);  // settles at 3.0
  const NodeId q = chain("q", 6);  // settles at 6.0
  const NodeId r_in = chain("r", 1);
  const NodeId n = nl.add_gate(CellType::kXor, {p, q}, "n");
  const NodeId c = nl.add_gate(CellType::kXor, {n, r_in}, "c");
  const NodeId r = nl.add_dff("reg");
  nl.connect_dff(r, c);
  TransientParams tp;
  tp.max_pulses_per_node = 2;
  InjectionSimulator inj(nl, {}, tp);

  const std::vector<NodeId> struck = {p, q, r_in};
  const LogicSimulator sim = settled(nl);
  ASSERT_EQ(oracle::inject(inj, sim, struck, 0.0).flipped_dffs,
            std::vector<NodeId>{r});
  netlist::WordSimulator words(nl);
  words.broadcast_from(sim);
  std::vector<std::vector<NodeId>> lanes(8);
  lanes[0] = struck;
  lanes[5] = struck;
  const std::vector<double> strike(lanes.size(), 0.0);
  BatchInjectionScratch scratch;
  std::vector<std::vector<NodeId>> flipped;
  inj.inject_batch(words, views(lanes), strike, scratch, flipped);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    EXPECT_EQ(flipped[l], oracle::inject(inj, sim, lanes[l], 0.0).flipped_dffs)
        << "lane " << l;
  }
}

TEST(InjectionSimulator, InjectBatchRejectsBadLaneCounts) {
  Chain c(3);
  InjectionSimulator inj(c.nl);
  netlist::WordSimulator words(c.nl);
  words.broadcast_from(settled(c.nl));
  BatchInjectionScratch scratch;
  std::vector<std::vector<NodeId>> flipped;
  const std::vector<std::vector<NodeId>> none;
  const std::vector<double> no_times;
  EXPECT_THROW(
      inj.inject_batch(words, views(none), no_times, scratch, flipped),
      fav::CheckError);
  const std::vector<std::vector<NodeId>> one(1);
  EXPECT_THROW(
      inj.inject_batch(words, views(one), no_times, scratch, flipped),
      fav::CheckError);  // strike_times size mismatch
}

TEST(InjectionSimulator, BadParamsThrow) {
  Chain c(3);
  TransientParams tp;
  tp.initial_width = 0.0;
  EXPECT_THROW(InjectionSimulator(c.nl, TimingModel{}, tp), fav::CheckError);
  tp.initial_width = 1.0;
  tp.max_pulses_per_node = 0;
  EXPECT_THROW(InjectionSimulator(c.nl, TimingModel{}, tp), fav::CheckError);
}

}  // namespace
}  // namespace fav::faultsim
