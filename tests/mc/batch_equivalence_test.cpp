// The word-parallel contract (DESIGN.md §6i): the engine packs samples of
// any injection cycle up to 64 per bit-parallel sweep, each lane gathered
// from its cycle's golden settled row, and that is its only evaluation
// path. Every SsfResult — records, fail codes, traces, contributions — must
// be bitwise identical to the scalar reference model (scalar_oracle.h) at
// every word width, thread count, and through journaled kill-and-resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "faultsim/glitch.h"
#include "mc/evaluator.h"
#include "scalar_oracle.h"
#include "precharac/sampling_model.h"
#include "soc/benchmark.h"
#include "util/metrics.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  faultsim::GlitchSimulator glitch{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::SignatureTrace signatures{soc, workload, 400};
  precharac::RegisterCharacterization charac;
  netlist::UnrolledCone cone;

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        cone(soc.netlist(), soc.netlist().find_or_throw("mpu_viol"), 12, 2) {}

  SsfEvaluator make(const EvaluatorConfig& cfg) const {
    return SsfEvaluator(soc, placement, injector, bench, golden, &charac,
                        cfg);
  }
};

Context& ctx() {
  static Context c;
  return c;
}

faultsim::AttackModel test_attack() {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  return attack;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_be_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

SsfResult run_with(std::size_t batch_lanes, std::size_t threads,
                   std::uint64_t seed, std::size_t n,
                   MetricsSink* sink = nullptr,
                   std::uint64_t cycle_budget = 0,
                   const faultsim::AttackModel& attack = test_attack()) {
  EvaluatorConfig cfg;
  cfg.batch_lanes = batch_lanes;
  cfg.threads = threads;
  cfg.metrics = sink;
  cfg.cycle_budget = cycle_budget;
  const SsfEvaluator ev = ctx().make(cfg);
  RandomSampler sampler(attack);
  Rng rng(seed);
  return ev.run(sampler, rng, n);
}

/// The scalar oracle over the same sample stream run_with draws.
SsfResult oracle_with(std::uint64_t seed, std::size_t n,
                      std::uint64_t cycle_budget = 0,
                      const faultsim::AttackModel& attack = test_attack()) {
  EvaluatorConfig cfg;
  cfg.cycle_budget = cycle_budget;
  const SsfEvaluator ev = ctx().make(cfg);
  RandomSampler sampler(attack);
  Rng rng(seed);
  return ScalarOracle(ev).run(ev.draw_batch(sampler, rng, n));
}

std::string grid_point(std::size_t lanes, std::size_t threads) {
  return "lanes=" + std::to_string(lanes) +
         " threads=" + std::to_string(threads);
}

TEST(BatchEquivalence, LaneAndThreadCountsAreBitwiseIdentical) {
  const SsfResult oracle = oracle_with(31, 300);
  ASSERT_GT(oracle.rtl + oracle.analytical, 0u);
  for (const std::size_t lanes : kOracleLanes) {
    for (const std::size_t threads : kOracleThreads) {
      SCOPED_TRACE(grid_point(lanes, threads));
      MetricsSink sink;
      const SsfResult batched = run_with(lanes, threads, 31, 300, &sink);
      expect_bitwise_equal(batched, oracle);
      // Every sample is a lane, and words break every `lanes` samples.
      EXPECT_EQ(sink.counter("eval.batch_lanes"), 300u);
      EXPECT_EQ(sink.counter("eval.batch_groups"), (300 + lanes - 1) / lanes);
      EXPECT_EQ(sink.counter("eval.batch_restore_saved"),
                sink.counter("eval.batch_lanes") -
                    sink.counter("eval.batch_restores"));
    }
  }
}

TEST(BatchEquivalence, CycleBudgetFailuresAreIdenticalLaneForLane) {
  // A tight budget makes some samples fail deterministically with
  // kCycleBudgetExceeded. The engine replays the oracle's budget charges
  // per lane, so the same samples must fail with the same code and reason.
  const std::uint64_t budget = 20;
  const SsfResult oracle = oracle_with(47, 256, budget);
  ASSERT_GT(oracle.failed, 0u);  // the scenario must actually trigger
  ASSERT_LT(oracle.failed, 256u);
  for (const std::size_t lanes : kOracleLanes) {
    for (const std::size_t threads : kOracleThreads) {
      SCOPED_TRACE(grid_point(lanes, threads));
      expect_bitwise_equal(run_with(lanes, threads, 47, 256, nullptr, budget),
                           oracle);
    }
  }
}

TEST(BatchEquivalence, MultiCycleLanesMatchScalarOracle) {
  // impact_cycles = 3: cycle 1 comes from the shared sweep, cycles 2 and 3
  // strike each lane's own corrupted machine. Warm-up from the nearest
  // checkpoint is te mod 32 (0..13 and 26..31 for te = Tt - t, Tt = 109),
  // so a budget of 12 fails lanes with warm-up 10 or 11 in the middle of
  // their injection cycles, next to lanes that fail at warm-up, in the RTL
  // resume, or not at all.
  faultsim::AttackModel attack = test_attack();
  attack.impact_cycles = 3;
  const std::uint64_t budget = 12;
  const std::uint64_t tt = ctx().make({}).target_cycle();
  for (const std::uint64_t cycle_budget : {std::uint64_t{0}, budget}) {
    SCOPED_TRACE("cycle_budget=" + std::to_string(cycle_budget));
    const SsfResult oracle = oracle_with(83, 300, cycle_budget, attack);
    ASSERT_GT(oracle.rtl + oracle.analytical, 0u);
    if (cycle_budget > 0) {
      std::size_t mid_cycle = 0;
      for (const SampleRecord& rec : oracle.records) {
        const std::uint64_t warmup =
            (tt - static_cast<std::uint64_t>(rec.sample.t)) % 32;
        if (rec.path == OutcomePath::kFailed && warmup + 2 >= budget &&
            warmup + 1 <= budget) {
          ++mid_cycle;
        }
      }
      ASSERT_GT(mid_cycle, 0u);
      ASSERT_LT(oracle.failed, 300u);
    }
    for (const std::size_t lanes : kOracleLanes) {
      for (const std::size_t threads : kOracleThreads) {
        SCOPED_TRACE(grid_point(lanes, threads));
        expect_bitwise_equal(
            run_with(lanes, threads, 83, 300, nullptr, cycle_budget, attack),
            oracle);
      }
    }
  }
}

/// The engine's word-parallel flip_set_batch of one setup-violation kind
/// must reproduce the oracle's scalar flip_set lane for lane, at every word
/// width and thread count.
void expect_glitch_batches_bitwise_identically(faultsim::TechniqueKind kind) {
  faultsim::GlitchAttackModel model(kind);
  model.t_min = 1;
  model.t_max = 10;
  model.levels = kind == faultsim::TechniqueKind::kClockGlitch
                     ? std::vector<double>{0.35, 0.55}
                     : std::vector<double>{0.3, 0.5};
  const faultsim::GlitchTechnique technique(ctx().glitch, kind);
  auto make = [&](const EvaluatorConfig& cfg) {
    return SsfEvaluator(ctx().soc, technique, ctx().bench, ctx().golden,
                        &ctx().charac, cfg);
  };
  const SsfEvaluator ev = make({});
  GlitchSampler sampler(model, ev.target_cycle());
  Rng rng(9);
  const std::vector<faultsim::FaultSample> samples =
      ev.draw_batch(sampler, rng, 300);
  // The scenario must flip registers, or lane identity is vacuous.
  const SsfResult oracle = ScalarOracle(ev).run(samples);
  ASSERT_GT(oracle.rtl + oracle.analytical, 0u);
  expect_engine_matches_oracle(make, {}, samples);
}

TEST(BatchEquivalence, LanesOfOneCycleResumeFromTheSameMachine) {
  // A word's diverging lanes of one injection cycle resume one after another
  // on the same machine, each after resetting its state and cycle and
  // rolling back the RAM writes of the lane before it. Two windows of two
  // words each of `fav evaluate --exhaustive` (framework defaults, t-range
  // 50, radius 1.5) break without that reset: in the first, a lane's RTL
  // resume is cut at the benchmark's cycle limit counted from a stale cycle;
  // in the second, a lane's resume writes RAM that flips a later lane's
  // verdict.
  const core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  fw.bind_exhaustive_space(50, 1.5);
  const auto make = [&](const EvaluatorConfig& cfg) {
    return SsfEvaluator(fw.soc(), fw.technique(), fw.benchmark(), fw.golden(),
                        &fw.characterization(), cfg);
  };
  for (const std::uint64_t begin : {12416u, 36672u}) {
    SCOPED_TRACE("samples from " + std::to_string(begin));
    std::vector<faultsim::FaultSample> samples;
    fw.technique().enumerate(begin, begin + 128, samples);
    expect_engine_matches_oracle(make, {}, samples);
  }
}

TEST(BatchEquivalence, ExhaustiveWordsWithMultiCycleImpactMatchScalarOracle) {
  // An exhaustive sweep is t-major, so consecutive words take the same
  // golden rows and a word may reuse the word simulator's last gather. A
  // lane with impact_cycles = 2 overwrites that simulator with its own
  // corrupted second cycle, so the next word must gather again. Strikes late
  // in the cycle latch transients, so the flip sets depend on the gathered
  // values: a sweep over a stale simulator changes records in this window.
  faultsim::AttackModel attack = test_attack();
  attack.t_max = 1;
  attack.strike_fracs = {0.9};
  attack.impact_cycles = 2;
  faultsim::RadiationTechnique technique(ctx().placement, ctx().injector);
  technique.bind_space(attack);
  std::vector<faultsim::FaultSample> samples;
  technique.enumerate(1280, 1536, samples);  // 4 words of 64 at t = 0
  const auto make = [&](const EvaluatorConfig& cfg) {
    return SsfEvaluator(ctx().soc, technique, ctx().bench, ctx().golden,
                        &ctx().charac, cfg);
  };
  const SsfResult oracle = ScalarOracle(make({})).run(samples);
  ASSERT_GT(oracle.rtl + oracle.analytical, 0u);
  expect_engine_matches_oracle(make, {}, samples);

  // Every word's multi-cycle lanes invalidate the gather; the single-cycle
  // words of one te gather once.
  for (const int impact : {2, 1}) {
    SCOPED_TRACE("impact_cycles=" + std::to_string(impact));
    std::vector<faultsim::FaultSample> word_samples = samples;
    for (faultsim::FaultSample& s : word_samples) s.impact_cycles = impact;
    MetricsSink sink;
    EvaluatorConfig cfg;
    cfg.metrics = &sink;
    const SsfEvaluator engine = make(cfg);
    engine.reduce_records(engine.evaluate_batch(word_samples));
    EXPECT_EQ(sink.counter("eval.batch_groups"), 4u);
    EXPECT_EQ(sink.counter("eval.batch.gathers"), impact == 2 ? 4u : 1u);
  }
}

TEST(BatchEquivalence, ClockGlitchTechniqueBatchesBitwiseIdentically) {
  expect_glitch_batches_bitwise_identically(
      faultsim::TechniqueKind::kClockGlitch);
}

TEST(BatchEquivalence, VoltageGlitchTechniqueBatchesBitwiseIdentically) {
  expect_glitch_batches_bitwise_identically(
      faultsim::TechniqueKind::kVoltageGlitch);
}

TEST(BatchEquivalence, JournaledKillAndResumeAcrossLaneCounts) {
  // A campaign killed mid-run (journal torn back to a prefix, as SIGKILL
  // leaves it) and resumed with a *different* word width must still
  // reproduce the oracle bit for bit: the journal carries records, not
  // packing decisions.
  const SsfResult reference = oracle_with(53, 200);

  const std::string dir = fresh_dir("resume_lanes");
  JournalOptions options;
  options.dir = dir;
  options.shard_size = 32;
  options.fingerprint = 0xFEEDFACE;
  options.context = "batch_equivalence_test";

  {
    EvaluatorConfig cfg;
    cfg.batch_lanes = 64;
    cfg.threads = 2;
    const SsfEvaluator ev = ctx().make(cfg);
    const auto attack = test_attack();
    RandomSampler sampler(attack);
    Rng rng(53);
    Result<SsfResult> full = ev.run_journaled(sampler, rng, 200, options);
    ASSERT_TRUE(full.is_ok()) << full.status().to_string();
    expect_bitwise_equal(full.value(), reference);
  }
  const fs::path file = fs::path(dir) / "campaign.fj";
  fs::resize_file(file, fs::file_size(file) * 2 / 5);

  EvaluatorConfig cfg;
  cfg.batch_lanes = 2;
  cfg.threads = 4;
  const SsfEvaluator ev = ctx().make(cfg);
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(53);
  options.resume = true;
  Result<SsfResult> resumed = ev.run_journaled(sampler, rng, 200, options);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  expect_bitwise_equal(resumed.value(), reference);
}

/// Importance sampling over a 50-cycle window spreads the samples over many
/// injection cycles, so each 64-lane word mixes lanes of many te.
const faultsim::AttackModel& wide_attack() {
  static const faultsim::AttackModel attack = [] {
    faultsim::AttackModel a;
    a.t_min = 0;
    a.t_max = 49;
    a.candidate_centers = ctx().placement.placed_nodes();
    return a;
  }();
  return attack;
}

const precharac::SamplingModel& wide_model() {
  static const precharac::SamplingModel model(
      ctx().soc, ctx().placement, ctx().cone, ctx().signatures, ctx().charac,
      wide_attack());
  return model;
}

SsfResult run_importance(std::size_t batch_lanes, std::size_t threads,
                         std::uint64_t cycle_budget = 0,
                         MetricsSink* sink = nullptr) {
  EvaluatorConfig cfg;
  cfg.batch_lanes = batch_lanes;
  cfg.threads = threads;
  cfg.cycle_budget = cycle_budget;
  cfg.metrics = sink;
  const SsfEvaluator ev = ctx().make(cfg);
  ImportanceSampler sampler(wide_model());
  Rng rng(61);
  return ev.run(sampler, rng, 640);
}

SsfResult oracle_importance(std::uint64_t cycle_budget = 0) {
  EvaluatorConfig cfg;
  cfg.cycle_budget = cycle_budget;
  const SsfEvaluator ev = ctx().make(cfg);
  ImportanceSampler sampler(wide_model());
  Rng rng(61);
  return ScalarOracle(ev).run(ev.draw_batch(sampler, rng, 640));
}

TEST(BatchEquivalence, MixedCycleWordsAreBitwiseIdentical) {
  const SsfResult oracle = oracle_importance();
  std::set<std::uint64_t> cycles;
  for (const SampleRecord& rec : oracle.records) cycles.insert(rec.te);
  ASSERT_GT(cycles.size(), 10u);  // the words must really mix cycles
  ASSERT_GT(oracle.rtl + oracle.analytical, 0u);
  for (const std::size_t lanes : kOracleLanes) {
    for (const std::size_t threads : kOracleThreads) {
      SCOPED_TRACE(grid_point(lanes, threads));
      MetricsSink sink;
      expect_bitwise_equal(run_importance(lanes, threads, 0, &sink), oracle);
      // Cross-cycle packing fills the words — 640 samples in 10 words of
      // 64 — with one golden row per distinct cycle.
      EXPECT_EQ(sink.counter("eval.batch_groups"), (640 + lanes - 1) / lanes);
      EXPECT_EQ(sink.counter("eval.batch_lanes"), 640u);
      EXPECT_EQ(sink.counter("eval.golden_rows"), cycles.size());
      if (lanes == 64) {
        ASSERT_NE(sink.gauge("eval.lane_occupancy"), nullptr);
        EXPECT_EQ(*sink.gauge("eval.lane_occupancy"), 1.0);
      }
    }
  }
}

TEST(BatchEquivalence, MixedCycleWordsFailBudgetsLaneForLane) {
  // Warm-up from the nearest checkpoint is te mod 32 here, so a budget of
  // 16 cycles sits between the smallest and the largest warm-up + 1: lanes
  // of one word fail with kCycleBudgetExceeded next to lanes that complete.
  const std::uint64_t budget = 16;
  const SsfResult oracle = oracle_importance(budget);
  std::size_t failed = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 64; ++i) {  // the first word's lanes
    const SampleRecord& rec = oracle.records[i];
    if (rec.path == OutcomePath::kFailed) {
      EXPECT_EQ(rec.fail_code, ErrorCode::kCycleBudgetExceeded);
      ++failed;
    } else {
      ++completed;
    }
  }
  ASSERT_GT(failed, 0u);
  ASSERT_GT(completed, 0u);
  for (const std::size_t lanes : kOracleLanes) {
    for (const std::size_t threads : kOracleThreads) {
      SCOPED_TRACE(grid_point(lanes, threads));
      expect_bitwise_equal(run_importance(lanes, threads, budget), oracle);
    }
  }
}

}  // namespace
}  // namespace fav::mc
