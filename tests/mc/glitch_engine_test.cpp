// Glitch evaluation through the technique-generic pipeline, for both
// setup-violation kinds (clock and voltage glitch): single attacks, exact
// enumeration vs Monte Carlo, thread-count determinism, kill-and-resume
// journaling, and campaign observability — the glitch path must offer
// everything the radiation path does. Callers drive a GlitchTechnique
// through SsfEvaluator directly; there is no glitch-specific engine. Each
// check is written once on the GlitchEngine fixture and runs under both
// kinds' suites (ClockGlitchEvaluator and VoltageGlitchEvaluator).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "faultsim/glitch.h"
#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "soc/benchmark.h"

namespace fav::mc {
namespace {

namespace fs = std::filesystem;
using faultsim::TechniqueKind;

struct Context {
  soc::SocNetlist soc;
  faultsim::GlitchSimulator glitch{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::RegisterCharacterization charac;

  Context()
      : charac(synth_golden, [] {
          precharac::CharacterizationConfig cfg;
          cfg.stride = 23;
          return cfg;
        }()) {}
};

Context& ctx() {
  static Context c;
  return c;
}

/// Fresh per-test journal directory under the gtest temp root.
std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void expect_bitwise_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].sample.t, b.records[i].sample.t) << i;
    EXPECT_EQ(a.records[i].sample.depth, b.records[i].sample.depth) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
  }
}

class GlitchEngine : public ::testing::Test {
 protected:
  explicit GlitchEngine(TechniqueKind kind)
      : kind_(kind), technique_(ctx().glitch, kind) {}

  bool clock() const { return kind_ == TechniqueKind::kClockGlitch; }

  /// A level that barely disturbs timing, and one deep enough to flip
  /// registers on this benchmark.
  double shallow() const { return clock() ? 0.999 : 0.001; }
  double deep() const { return clock() ? 0.3 : 0.7; }

  faultsim::GlitchAttackModel test_model() const {
    faultsim::GlitchAttackModel model(kind_);
    model.t_min = 1;
    model.t_max = 10;
    model.levels = clock() ? std::vector<double>{0.35, 0.55}
                           : std::vector<double>{0.3, 0.5};
    return model;
  }

  SsfEvaluator engine(const EvaluatorConfig& cfg = {}) const {
    return SsfEvaluator(ctx().soc, technique_, ctx().bench, ctx().golden,
                        &ctx().charac, cfg);
  }

  /// Outcome of one glitch attack at timing distance t with the given level.
  SampleRecord evaluate(int t, double level) const {
    faultsim::FaultSample sample;
    sample.technique = kind_;
    sample.t = t;
    sample.depth = level;
    return engine().evaluate_sample(sample);
  }

  /// Plain Monte Carlo over the holistic model.
  SsfResult run(const SsfEvaluator& ev, const faultsim::GlitchAttackModel& m,
                std::uint64_t seed, std::size_t n) const {
    GlitchSampler sampler(m, ev.target_cycle());
    Rng rng(seed);
    return ev.run(sampler, rng, n);
  }

  /// Exact SSF: the model, validated against the program, bound as the
  /// technique's fault space and swept by SsfEvaluator::run_exhaustive.
  SsfResult exact(const SsfEvaluator& ev,
                  const faultsim::GlitchAttackModel& m) {
    m.check_valid(ev.target_cycle());
    technique_.bind_space(m);
    return ev.run_exhaustive();
  }

  // The checks each kind's suite runs.
  void shallow_glitch_is_masked();
  void deep_glitch_flips_something();
  void deterministic_per_attack();
  void invalid_arguments_throw();
  void foreign_technique_sample_is_rejected();
  void exact_enumeration_covers_whole_space();
  void model_beyond_target_cycle_is_rejected();
  void monte_carlo_converges_to_exact_within_3_sigma();
  void thread_counts_are_bitwise_identical();
  void exact_enumeration_is_thread_independent();
  void kill_and_resume_is_bitwise_identical();
  void reports_metrics_and_ess_like_radiation_runs();
  void timing_distance_before_start_is_masked();

  TechniqueKind kind_;
  faultsim::GlitchTechnique technique_;
};

class ClockGlitchEvaluator : public GlitchEngine {
 protected:
  ClockGlitchEvaluator() : GlitchEngine(TechniqueKind::kClockGlitch) {}
};

class VoltageGlitchEvaluator : public GlitchEngine {
 protected:
  VoltageGlitchEvaluator() : GlitchEngine(TechniqueKind::kVoltageGlitch) {}
};

void GlitchEngine::shallow_glitch_is_masked() {
  // A barely-disturbed cycle misses no path.
  const SampleRecord rec = evaluate(5, shallow());
  EXPECT_TRUE(rec.flipped_bits.empty());
  EXPECT_FALSE(rec.success);
  EXPECT_EQ(rec.path, OutcomePath::kMasked);
  EXPECT_EQ(rec.sample.technique, kind_);
}

void GlitchEngine::deep_glitch_flips_something() {
  bool any = false;
  for (int t = 1; t <= 10; ++t) {
    if (!evaluate(t, deep()).flipped_bits.empty()) any = true;
  }
  EXPECT_TRUE(any);
}

void GlitchEngine::deterministic_per_attack() {
  const SampleRecord a = evaluate(7, 0.5);
  const SampleRecord b = evaluate(7, 0.5);
  EXPECT_EQ(a.flipped_bits, b.flipped_bits);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.te, engine().target_cycle() - 7);
}

void GlitchEngine::invalid_arguments_throw() {
  EXPECT_THROW(evaluate(-1, 0.5), fav::CheckError);
  EXPECT_THROW(evaluate(1, 0.0), fav::CheckError);
  EXPECT_THROW(evaluate(1, 1.0), fav::CheckError);
}

void GlitchEngine::foreign_technique_sample_is_rejected() {
  // The engine is built for one glitch kind; a radiation-tagged or
  // other-kind sample must be refused instead of silently misinterpreted.
  faultsim::FaultSample radiation;  // defaults to kRadiation
  radiation.t = 3;
  radiation.radius = 1.5;
  EXPECT_THROW(engine().evaluate_sample(radiation), fav::CheckError);
  faultsim::FaultSample other;
  other.technique = clock() ? TechniqueKind::kVoltageGlitch
                            : TechniqueKind::kClockGlitch;
  other.t = 3;
  other.depth = 0.5;
  EXPECT_THROW(engine().evaluate_sample(other), fav::CheckError);
}

void GlitchEngine::exact_enumeration_covers_whole_space() {
  faultsim::GlitchAttackModel model = test_model();
  model.t_max = 20;
  const SsfResult result = exact(engine(), model);
  EXPECT_EQ(result.stats.count(), 40u);
  EXPECT_EQ(result.records.size(), 40u);
  EXPECT_GE(result.ssf(), 0.0);
  EXPECT_LE(result.ssf(), 1.0);
}

void GlitchEngine::model_beyond_target_cycle_is_rejected() {
  // A timing range past Tt has no cycle to glitch. Such samples used to be
  // silently recorded as masked (te = 0), diluting the estimate; the model
  // is rejected up front by validation and sampler construction alike.
  faultsim::GlitchAttackModel model = test_model();
  const SsfEvaluator ev = engine();
  model.t_max = static_cast<int>(ev.target_cycle()) + 5;
  EXPECT_THROW(exact(ev, model), fav::CheckError);
  EXPECT_THROW(GlitchSampler(model, ev.target_cycle()), fav::CheckError);
  EXPECT_THROW(run(ev, model, 1, 10), fav::CheckError);
}

void GlitchEngine::monte_carlo_converges_to_exact_within_3_sigma() {
  // The unified MC estimate must agree with the exact enumeration within its
  // own 3-sigma confidence interval — at one thread and at four (the sample
  // stream is drawn sequentially, so the estimate is thread-independent).
  const faultsim::GlitchAttackModel model = test_model();
  const SsfResult reference = exact(engine(), model);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const SsfResult mc = run(engine(cfg), model, 42, 2000);
    const double tolerance =
        std::max(3.0 * mc.stats.standard_error(), 1e-12);
    EXPECT_NEAR(mc.ssf(), reference.ssf(), tolerance);
  }
}

void GlitchEngine::thread_counts_are_bitwise_identical() {
  const faultsim::GlitchAttackModel model = test_model();
  SsfResult reference;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.threads = threads;
    SsfResult result = run(engine(cfg), model, 7, 300);
    if (threads == 1) {
      reference = std::move(result);
    } else {
      expect_bitwise_equal(result, reference);
    }
  }
}

void GlitchEngine::exact_enumeration_is_thread_independent() {
  const faultsim::GlitchAttackModel model = test_model();
  const SsfResult sequential = exact(engine(), model);
  EvaluatorConfig cfg;
  cfg.threads = 4;
  expect_bitwise_equal(exact(engine(cfg), model), sequential);
}

void GlitchEngine::kill_and_resume_is_bitwise_identical() {
  // The radiation journal acceptance scenario, for glitch campaigns: a run
  // killed mid-campaign (simulated by tearing the journal back to a prefix,
  // exactly what SIGKILL leaves behind) and resumed must reproduce the
  // uninterrupted run bit for bit.
  const faultsim::GlitchAttackModel model = test_model();
  JournalOptions jopt;
  jopt.shard_size = 32;
  jopt.fingerprint = 0x617C0FFEE;
  jopt.context = "glitch_journal_test";

  const SsfResult reference = run(engine(), model, 43, 200);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::string dir = fresh_dir(
        std::string("glitch_resume_") + faultsim::technique_kind_name(kind_) +
        "_t" + std::to_string(threads));
    jopt.dir = dir;
    EvaluatorConfig cfg;
    cfg.threads = threads;
    const SsfEvaluator ev = engine(cfg);
    {
      GlitchSampler sampler(model, ev.target_cycle());
      Rng rng(43);
      jopt.resume = false;
      Result<SsfResult> full = ev.run_journaled(sampler, rng, 200, jopt);
      ASSERT_TRUE(full.is_ok()) << full.status().to_string();
      expect_bitwise_equal(full.value(), reference);
    }
    const fs::path file = fs::path(dir) / "campaign.fj";
    fs::resize_file(file, fs::file_size(file) * 2 / 5);

    GlitchSampler sampler(model, ev.target_cycle());
    Rng rng(43);
    jopt.resume = true;
    Result<SsfResult> resumed = ev.run_journaled(sampler, rng, 200, jopt);
    ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
    expect_bitwise_equal(resumed.value(), reference);
  }
}

void GlitchEngine::reports_metrics_and_ess_like_radiation_runs() {
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  const SsfResult result = run(engine(cfg), test_model(), 9, 150);
  EXPECT_EQ(metrics.counter("eval.samples"), 150u);
  EXPECT_EQ(metrics.counter("eval.path.masked") +
                metrics.counter("eval.path.analytical") +
                metrics.counter("eval.path.rtl") +
                metrics.counter("eval.path.failed"),
            150u);
  // Uniform sampler => unit weights => ESS equals the completed count.
  EXPECT_DOUBLE_EQ(result.effective_sample_size(),
                   static_cast<double>(150 - result.failed));
  ASSERT_NE(metrics.gauge("eval.ess"), nullptr);
  EXPECT_DOUBLE_EQ(*metrics.gauge("eval.ess"),
                   result.effective_sample_size());
  ASSERT_NE(metrics.timer("run.total_ns"), nullptr);
}

void GlitchEngine::timing_distance_before_start_is_masked() {
  const SampleRecord rec =
      evaluate(static_cast<int>(engine().target_cycle()) + 3, deep());
  EXPECT_FALSE(rec.success);
  EXPECT_EQ(rec.path, OutcomePath::kMasked);
}

TEST_F(ClockGlitchEvaluator, ShallowGlitchIsMasked) {
  shallow_glitch_is_masked();
}
TEST_F(VoltageGlitchEvaluator, ShallowGlitchIsMasked) {
  shallow_glitch_is_masked();
}

TEST_F(ClockGlitchEvaluator, DeepGlitchFlipsSomething) {
  deep_glitch_flips_something();
}
TEST_F(VoltageGlitchEvaluator, DeepGlitchFlipsSomething) {
  deep_glitch_flips_something();
}

TEST_F(ClockGlitchEvaluator, DeterministicPerAttack) {
  deterministic_per_attack();
}
TEST_F(VoltageGlitchEvaluator, DeterministicPerAttack) {
  deterministic_per_attack();
}

TEST_F(ClockGlitchEvaluator, InvalidArgumentsThrow) {
  invalid_arguments_throw();
}
TEST_F(VoltageGlitchEvaluator, InvalidArgumentsThrow) {
  invalid_arguments_throw();
}

TEST_F(ClockGlitchEvaluator, ForeignTechniqueSampleIsRejected) {
  foreign_technique_sample_is_rejected();
}
TEST_F(VoltageGlitchEvaluator, ForeignTechniqueSampleIsRejected) {
  foreign_technique_sample_is_rejected();
}

TEST_F(ClockGlitchEvaluator, ExactEnumerationCoversWholeSpace) {
  exact_enumeration_covers_whole_space();
}
TEST_F(VoltageGlitchEvaluator, ExactEnumerationCoversWholeSpace) {
  exact_enumeration_covers_whole_space();
}

TEST_F(ClockGlitchEvaluator, ModelBeyondTargetCycleIsRejected) {
  model_beyond_target_cycle_is_rejected();
}
TEST_F(VoltageGlitchEvaluator, ModelBeyondTargetCycleIsRejected) {
  model_beyond_target_cycle_is_rejected();
}

TEST_F(ClockGlitchEvaluator, MonteCarloConvergesToExactWithin3Sigma) {
  monte_carlo_converges_to_exact_within_3_sigma();
}
TEST_F(VoltageGlitchEvaluator, MonteCarloConvergesToExactWithin3Sigma) {
  monte_carlo_converges_to_exact_within_3_sigma();
}

TEST_F(ClockGlitchEvaluator, ThreadCountsAreBitwiseIdentical) {
  thread_counts_are_bitwise_identical();
}
TEST_F(VoltageGlitchEvaluator, ThreadCountsAreBitwiseIdentical) {
  thread_counts_are_bitwise_identical();
}

TEST_F(ClockGlitchEvaluator, ExactEnumerationIsThreadIndependent) {
  exact_enumeration_is_thread_independent();
}
TEST_F(VoltageGlitchEvaluator, ExactEnumerationIsThreadIndependent) {
  exact_enumeration_is_thread_independent();
}

TEST_F(ClockGlitchEvaluator, KillAndResumeIsBitwiseIdentical) {
  kill_and_resume_is_bitwise_identical();
}
TEST_F(VoltageGlitchEvaluator, KillAndResumeIsBitwiseIdentical) {
  kill_and_resume_is_bitwise_identical();
}

TEST_F(ClockGlitchEvaluator, ReportsMetricsAndEssLikeRadiationRuns) {
  reports_metrics_and_ess_like_radiation_runs();
}
TEST_F(VoltageGlitchEvaluator, ReportsMetricsAndEssLikeRadiationRuns) {
  reports_metrics_and_ess_like_radiation_runs();
}

TEST_F(ClockGlitchEvaluator, TimingDistanceBeforeStartIsMasked) {
  timing_distance_before_start_is_masked();
}
TEST_F(VoltageGlitchEvaluator, TimingDistanceBeforeStartIsMasked) {
  timing_distance_before_start_is_masked();
}

}  // namespace
}  // namespace fav::mc
