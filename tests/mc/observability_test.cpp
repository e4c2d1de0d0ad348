// The observability contract of DESIGN.md §6f: enabling metrics, tracing or
// the progress meter must never change a single bit of the SSF estimate — at
// any thread count — and the collected numbers must agree exactly with the
// result they describe.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <sstream>

#include "mc/evaluator.h"
#include "mc/samplers.h"
#include "soc/benchmark.h"
#include "util/metrics.h"

namespace fav::mc {
namespace {

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
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

  SsfEvaluator make_evaluator(const EvaluatorConfig& cfg) const {
    return SsfEvaluator(soc, placement, injector, bench, golden, &charac, cfg);
  }

  faultsim::AttackModel attack() const {
    faultsim::AttackModel a;
    a.t_min = 0;
    a.t_max = 19;
    a.candidate_centers = placement.placed_nodes();
    return a;
  }
};

Context& ctx() {
  static Context c;
  return c;
}

constexpr std::size_t kSamples = 200;

SsfResult run_with(const EvaluatorConfig& cfg) {
  const auto attack = ctx().attack();
  RandomSampler sampler(attack);
  Rng rng(77);
  return ctx().make_evaluator(cfg).run(sampler, rng, kSamples);
}

void expect_bitwise_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.completed_weight, b.completed_weight);
  EXPECT_EQ(a.completed_weight_sq, b.completed_weight_sq);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
}

TEST(Observability, MetricsDoNotPerturbTheEstimate) {
  const SsfResult plain = run_with(EvaluatorConfig{});

  MetricsSink metrics;
  TraceBuffer trace;
  std::FILE* devnull = std::tmpfile();
  ASSERT_NE(devnull, nullptr);
  ProgressMeter progress(kSamples, 0, devnull);
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  cfg.progress = &progress;
  const SsfResult observed = run_with(cfg);
  std::fclose(devnull);

  expect_bitwise_equal(observed, plain);
  EXPECT_FALSE(metrics.empty());
}

TEST(Observability, ThreadCountDoesNotChangeResultsOrCounters) {
  MetricsSink m1, m4;
  EvaluatorConfig c1, c4;
  c1.threads = 1;
  c1.metrics = &m1;
  c4.threads = 4;
  c4.metrics = &m4;
  const SsfResult r1 = run_with(c1);
  const SsfResult r4 = run_with(c4);
  expect_bitwise_equal(r1, r4);
  // Sample-derived counters and gauges are schedule-independent by
  // construction (recorded in the sample-index-ordered reduction).
  for (const char* name :
       {"eval.samples", "eval.path.masked", "eval.path.analytical",
        "eval.path.rtl", "eval.path.failed", "eval.successes",
        "rtl.warmup_cycles", "rtl.resume_cycles", "gate.injection_cycles",
        "gate.settle_passes", "rtl.restore_bytes"}) {
    EXPECT_EQ(m1.counter(name), m4.counter(name)) << name;
  }
  ASSERT_NE(m1.gauge("eval.ess"), nullptr);
  ASSERT_NE(m4.gauge("eval.ess"), nullptr);
  EXPECT_EQ(*m1.gauge("eval.ess"), *m4.gauge("eval.ess"));
  EXPECT_EQ(*m1.gauge("eval.ssf"), *m4.gauge("eval.ssf"));
}

TEST(Observability, CountersAndGaugesMatchTheResult) {
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  const SsfResult res = run_with(cfg);
  EXPECT_EQ(metrics.counter("eval.samples"), kSamples);
  EXPECT_EQ(metrics.counter("eval.path.masked"), res.masked);
  EXPECT_EQ(metrics.counter("eval.path.analytical"), res.analytical);
  EXPECT_EQ(metrics.counter("eval.path.rtl"), res.rtl);
  EXPECT_EQ(metrics.counter("eval.path.failed"), res.failed);
  EXPECT_EQ(metrics.counter("eval.successes"), res.successes);
  ASSERT_NE(metrics.gauge("eval.ess"), nullptr);
  EXPECT_EQ(*metrics.gauge("eval.ess"), res.effective_sample_size());
  ASSERT_NE(metrics.gauge("eval.ssf"), nullptr);
  EXPECT_EQ(*metrics.gauge("eval.ssf"), res.ssf());
  // An unweighted (random-sampler) run is worth its completed-sample count.
  EXPECT_NEAR(res.effective_sample_size(),
              static_cast<double>(kSamples - res.failed), 1e-9);
  // Phase timers exist for the work that actually happened.
  ASSERT_NE(metrics.timer("run.total_ns"), nullptr);
  ASSERT_NE(metrics.timer("run.draw_batch_ns"), nullptr);
  if (res.rtl > 0) {
    ASSERT_NE(metrics.timer("eval.restore_ns"), nullptr);
    EXPECT_GT(metrics.counter("rtl.restore_bytes"), 0u);
  }
}

TEST(Observability, TraceHasOneEventPerSampleInSampleOrder) {
  TraceBuffer trace;
  EvaluatorConfig cfg;
  cfg.threads = 2;  // exercise the per-worker buffers and the merge
  cfg.trace = &trace;
  const SsfResult res = run_with(cfg);
  ASSERT_EQ(trace.size(), kSamples);
  std::set<std::uint64_t> keys;
  for (const TraceEvent& e : trace.events()) {
    keys.insert(e.order_key);
    EXPECT_EQ(e.category, "sample");
  }
  EXPECT_EQ(keys.size(), kSamples);  // every sample index exactly once
  EXPECT_EQ(*keys.begin(), 0u);
  EXPECT_EQ(*keys.rbegin(), kSamples - 1);
  // Serialized form is sorted by sample index regardless of worker
  // interleaving, and the path names match the outcome split.
  std::size_t rtl_events = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.name == outcome_path_name(OutcomePath::kRtl)) ++rtl_events;
  }
  EXPECT_EQ(rtl_events, res.rtl);
  std::ostringstream os;
  trace.write_json(os);
  EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
}

TEST(Observability, BatchedTimersDoNotDoubleCount) {
  // The word phase is timed once per word and each lane from the start of
  // its own finalization, so on one thread the intervals are disjoint and
  // must fit inside the run.
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.threads = 1;
  cfg.batch_lanes = 64;
  cfg.metrics = &metrics;
  run_with(cfg);
  ASSERT_GT(metrics.counter("eval.batch_groups"), 0u);
  const TimerStat* word = metrics.timer("eval.batch.word_ns");
  ASSERT_NE(word, nullptr);
  EXPECT_EQ(word->count, metrics.counter("eval.batch_groups"));
  std::uint64_t sampled_ns = 0;
  std::uint64_t sampled = 0;
  for (const auto& [name, stat] : metrics.timers()) {
    if (name.rfind("eval.sample.", 0) == 0) {
      sampled_ns += stat.total_ns;
      sampled += stat.count;
    }
  }
  EXPECT_EQ(sampled, kSamples);
  ASSERT_NE(metrics.timer("run.total_ns"), nullptr);
  EXPECT_LE(sampled_ns + word->total_ns,
            metrics.timer("run.total_ns")->total_ns);
  // The word's gather and sweep are nested inside eval.gate_inject_ns.
  const TimerStat* gather = metrics.timer("eval.batch.gather_ns");
  const TimerStat* sweep = metrics.timer("eval.batch.sweep_ns");
  const TimerStat* inject = metrics.timer("eval.gate_inject_ns");
  ASSERT_NE(gather, nullptr);
  ASSERT_NE(sweep, nullptr);
  ASSERT_NE(inject, nullptr);
  EXPECT_EQ(gather->count, word->count);
  EXPECT_EQ(sweep->count, word->count);
  EXPECT_LE(gather->total_ns + sweep->total_ns, inject->total_ns);
  // The sweep visits some gates, and never the whole netlist per word.
  const std::uint64_t visited = metrics.counter("faultsim.sweep_nodes");
  EXPECT_GT(visited, 0u);
  EXPECT_LT(visited, word->count * ctx().soc.netlist().gate_count());
}

TEST(Observability, ProgressMeterAgreesWithResult) {
  std::FILE* devnull = std::tmpfile();
  ASSERT_NE(devnull, nullptr);
  ProgressMeter progress(kSamples, 0, devnull);
  EvaluatorConfig cfg;
  cfg.progress = &progress;
  const SsfResult res = run_with(cfg);
  progress.finish();
  std::fclose(devnull);
  EXPECT_EQ(progress.completed(), kSamples);
  EXPECT_EQ(progress.failed(), res.failed);
  EXPECT_NEAR(progress.effective_sample_size(), res.effective_sample_size(),
              1e-9 * (1.0 + res.effective_sample_size()));
}

TEST(Observability, JournaledRunRecordsJournalMetrics) {
  const std::filesystem::path dir_path =
      std::filesystem::path(::testing::TempDir()) / "fav_observability_journal";
  std::filesystem::remove_all(dir_path);
  std::filesystem::create_directories(dir_path);
  const std::string dir = dir_path.string();
  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.metrics = &metrics;
  SsfEvaluator ev = ctx().make_evaluator(cfg);
  const auto attack = ctx().attack();
  RandomSampler sampler(attack);
  Rng rng(77);
  JournalOptions jopt;
  jopt.dir = dir;
  jopt.fingerprint = 0xC0FFEE;
  jopt.shard_size = 32;
  Result<SsfResult> res = ev.run_journaled(sampler, rng, kSamples, jopt);
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  EXPECT_EQ(metrics.counter("eval.samples"), kSamples);
  EXPECT_GE(metrics.counter("journal.commits"), 1u);
  EXPECT_GE(metrics.counter("journal.dir_fsyncs"), 1u);
  EXPECT_GT(metrics.counter("journal.bytes_written"), 0u);
  ASSERT_NE(metrics.timer("journal.fsync_ns"), nullptr);
  EXPECT_GE(metrics.timer("journal.fsync_ns")->count, 1u);
}

}  // namespace
}  // namespace fav::mc
