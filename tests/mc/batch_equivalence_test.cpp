// The word-parallel batching contract (DESIGN.md §6i): packing samples of
// any injection cycle up to 64 per bit-parallel sweep, each lane gathered
// from its cycle's golden settled row, is a pure scheduling change. Every
// SsfResult — records, fail codes, traces, contributions — must be bitwise
// identical to the scalar path at every lane count, thread count, and
// through journaled kill-and-resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "faultsim/glitch.h"
#include "mc/evaluator.h"
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

/// Bitwise equality down to the failure metadata — batching must reproduce
/// even the scalar path's deterministic failures record for record.
void expect_bitwise_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.failure_counts, b.failure_counts);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].te, b.records[i].te) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].success, b.records[i].success) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
    EXPECT_EQ(a.records[i].fail_code, b.records[i].fail_code) << i;
    EXPECT_EQ(a.records[i].fail_reason, b.records[i].fail_reason) << i;
    EXPECT_EQ(a.records[i].retried, b.records[i].retried) << i;
  }
}

SsfResult run_with(std::size_t batch_lanes, std::size_t threads,
                   std::uint64_t seed, std::size_t n,
                   MetricsSink* sink = nullptr,
                   std::uint64_t cycle_budget = 0) {
  EvaluatorConfig cfg;
  cfg.batch_lanes = batch_lanes;
  cfg.threads = threads;
  cfg.metrics = sink;
  cfg.cycle_budget = cycle_budget;
  const SsfEvaluator ev = ctx().make(cfg);
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(seed);
  return ev.run(sampler, rng, n);
}

TEST(BatchEquivalence, LaneAndThreadCountsAreBitwiseIdentical) {
  MetricsSink scalar_sink;
  const SsfResult scalar =
      run_with(/*batch_lanes=*/1, /*threads=*/1, 31, 300, &scalar_sink);
  EXPECT_EQ(scalar_sink.counter("eval.batch_groups"), 0u);

  for (const std::size_t lanes : {2u, 7u, 64u}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      MetricsSink sink;
      const SsfResult batched = run_with(lanes, threads, 31, 300, &sink);
      expect_bitwise_equal(batched, scalar);
      // The runs above must actually exercise the batch path, not fall back.
      EXPECT_GT(sink.counter("eval.batch_groups"), 0u);
      EXPECT_GT(sink.counter("eval.batch_lanes"), 0u);
      EXPECT_EQ(sink.counter("eval.batch_restore_saved"),
                sink.counter("eval.batch_lanes") -
                    sink.counter("eval.batch_restores"));
    }
  }
}

TEST(BatchEquivalence, CycleBudgetFailuresAreIdenticalLaneForLane) {
  // A tight budget makes some samples fail deterministically with
  // kCycleBudgetExceeded. The batch path replays the scalar budget charges
  // per lane, so the same samples must fail with the same code and reason.
  const std::uint64_t budget = 20;
  const SsfResult scalar = run_with(1, 1, 47, 256, nullptr, budget);
  ASSERT_GT(scalar.failed, 0u);  // the scenario must actually trigger
  ASSERT_LT(scalar.failed, 256u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const SsfResult batched = run_with(64, threads, 47, 256, nullptr, budget);
    expect_bitwise_equal(batched, scalar);
  }
}

/// The word-parallel flip_set_batch of one setup-violation kind must
/// reproduce the scalar flip_set lane for lane, at one thread and at four.
void expect_glitch_batches_bitwise_identically(faultsim::TechniqueKind kind) {
  faultsim::GlitchAttackModel model(kind);
  model.t_min = 1;
  model.t_max = 10;
  model.levels = kind == faultsim::TechniqueKind::kClockGlitch
                     ? std::vector<double>{0.35, 0.55}
                     : std::vector<double>{0.3, 0.5};
  const faultsim::GlitchTechnique technique(ctx().glitch, kind);
  auto run = [&](std::size_t lanes, std::size_t threads) {
    EvaluatorConfig cfg;
    cfg.batch_lanes = lanes;
    cfg.threads = threads;
    const SsfEvaluator ev(ctx().soc, technique, ctx().bench, ctx().golden,
                          &ctx().charac, cfg);
    GlitchSampler sampler(model, ev.target_cycle());
    Rng rng(9);
    return ev.run(sampler, rng, 300);
  };
  const SsfResult scalar = run(1, 1);
  // The scenario must flip registers, or lane identity is vacuous.
  ASSERT_GT(scalar.rtl + scalar.analytical, 0u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bitwise_equal(run(64, threads), scalar);
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
  // A batched campaign killed mid-run (journal torn back to a prefix, as
  // SIGKILL leaves it) and resumed with a *different* lane count must still
  // reproduce the scalar un-journaled run bit for bit: the journal carries
  // records, not batching decisions.
  const SsfResult reference = run_with(1, 1, 53, 200);

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

SsfResult run_importance(std::size_t batch_lanes, std::size_t threads,
                         std::uint64_t cycle_budget = 0,
                         MetricsSink* sink = nullptr) {
  static const precharac::SamplingModel model(
      ctx().soc, ctx().placement, ctx().cone, ctx().signatures, ctx().charac,
      wide_attack());
  EvaluatorConfig cfg;
  cfg.batch_lanes = batch_lanes;
  cfg.threads = threads;
  cfg.cycle_budget = cycle_budget;
  cfg.metrics = sink;
  const SsfEvaluator ev = ctx().make(cfg);
  ImportanceSampler sampler(model);
  Rng rng(61);
  return ev.run(sampler, rng, 640);
}

TEST(BatchEquivalence, MixedCycleWordsAreBitwiseIdentical) {
  const SsfResult scalar = run_importance(1, 1);
  std::set<std::uint64_t> cycles;
  for (const SampleRecord& rec : scalar.records) cycles.insert(rec.te);
  ASSERT_GT(cycles.size(), 10u);  // the words must really mix cycles
  ASSERT_GT(scalar.rtl + scalar.analytical, 0u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsSink sink;
    expect_bitwise_equal(run_importance(64, threads, 0, &sink), scalar);
    // Cross-cycle packing fills the words: 640 samples in 10 words, and
    // one golden row per distinct cycle.
    EXPECT_EQ(sink.counter("eval.batch_groups"), 10u);
    EXPECT_EQ(sink.counter("eval.batch_lanes"), 640u);
    EXPECT_EQ(sink.counter("eval.golden_rows"), cycles.size());
    ASSERT_NE(sink.gauge("eval.lane_occupancy"), nullptr);
    EXPECT_EQ(*sink.gauge("eval.lane_occupancy"), 1.0);
  }
}

TEST(BatchEquivalence, MixedCycleWordsFailBudgetsLaneForLane) {
  // Warm-up from the nearest checkpoint is te mod 32 here, so a budget of
  // 16 cycles sits between the smallest and the largest warm-up + 1: lanes
  // of one word fail with kCycleBudgetExceeded next to lanes that complete.
  const std::uint64_t budget = 16;
  const SsfResult scalar = run_importance(1, 1, budget);
  std::size_t failed = 0;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < 64; ++i) {  // the first word's lanes
    const SampleRecord& rec = scalar.records[i];
    if (rec.path == OutcomePath::kFailed) {
      EXPECT_EQ(rec.fail_code, ErrorCode::kCycleBudgetExceeded);
      ++failed;
    } else {
      ++completed;
    }
  }
  ASSERT_GT(failed, 0u);
  ASSERT_GT(completed, 0u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bitwise_equal(run_importance(64, threads, budget), scalar);
  }
}

}  // namespace
}  // namespace fav::mc
