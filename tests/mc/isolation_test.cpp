// Per-sample fault-isolation tests: cycle budgets, deadlines, failure
// capture and the determinism of budget overruns across thread counts.
#include <gtest/gtest.h>

#include <string>

#include "mc/evaluator.h"
#include "scalar_oracle.h"
#include "soc/benchmark.h"
#include "util/status.h"

namespace fav::mc {
namespace {

using faultsim::FaultSample;

struct Context {
  soc::SocNetlist soc;
  layout::Placement placement{soc.netlist()};
  faultsim::InjectionSimulator injector{soc.netlist()};
  soc::SecurityBenchmark bench = soc::make_illegal_write_benchmark();
  rtl::GoldenRun golden{bench.program, bench.max_cycles, 32};
  rtl::Program workload = soc::make_synthetic_workload();
  rtl::GoldenRun synth_golden{workload, 400, 32};
  precharac::RegisterCharacterization charac;
  SsfEvaluator evaluator;

  Context()
      : charac(synth_golden,
               [] {
                 precharac::CharacterizationConfig cfg;
                 cfg.stride = 23;
                 return cfg;
               }()),
        evaluator(soc, placement, injector, bench, golden, &charac) {}
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

SsfEvaluator make_evaluator(const EvaluatorConfig& cfg) {
  return SsfEvaluator(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                      ctx().golden, &ctx().charac, cfg);
}

TEST(EvalBudget, UnlimitedNeverFires) {
  EvalBudget budget(0, 0);
  for (int i = 0; i < 1000; ++i) budget.charge_cycles(1'000'000);
}

TEST(EvalBudget, CycleBudgetFiresDeterministically) {
  EvalBudget budget(100, 0);
  budget.charge_cycles(60);
  budget.charge_cycles(40);  // exactly exhausted: still fine
  try {
    budget.charge_cycles(1);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCycleBudgetExceeded);
  }
}

TEST(EvalBudget, GenerousDeadlineDoesNotFire) {
  EvalBudget budget(0, 60'000);
  // Far more charges than the probe interval, well inside the deadline.
  for (int i = 0; i < 10'000; ++i) budget.charge_cycles(10);
}

TEST(Isolation, TinyCycleBudgetFailsSamplesWithoutAborting) {
  // A pathologically small budget makes (some) evaluations overrun; the
  // campaign must absorb them as kFailed records, keep the estimate defined
  // over the completed samples, and report the failed weight.
  EvaluatorConfig cfg;
  cfg.cycle_budget = 1;  // even the warm-up overruns for most samples
  SsfEvaluator ev = make_evaluator(cfg);
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(3);
  const SsfResult res = ev.run(sampler, rng, 200);
  EXPECT_GT(res.failed, 0u);
  EXPECT_EQ(res.stats.count() + res.failed, 200u);
  EXPECT_EQ(res.records.size(), 200u);
  EXPECT_GT(res.failure_counts.at(ErrorCode::kCycleBudgetExceeded), 0u);
  EXPECT_GT(res.failed_weight_fraction(), 0.0);
  EXPECT_LE(res.failed_weight_fraction(), 1.0);
  // Cycle-budget overruns are deterministic; re-running them cannot help,
  // so the retry-once policy must skip them.
  EXPECT_EQ(res.retried, 0u);
  for (const auto& rec : res.records) {
    if (rec.path != OutcomePath::kFailed) continue;
    EXPECT_EQ(rec.fail_code, ErrorCode::kCycleBudgetExceeded);
    EXPECT_FALSE(rec.fail_reason.empty());
    EXPECT_EQ(rec.contribution, 0.0);
  }
}

TEST(Isolation, BudgetOverrunsAreBitwiseDeterministicAcrossThreads) {
  // Budget exhaustion is charged in RTL cycles, not wall-clock, so which
  // samples fail — and the resulting estimate — must not depend on the
  // worker count.
  EvaluatorConfig base;
  base.cycle_budget = 40;
  const auto attack = test_attack();
  RandomSampler ref_sampler(attack);
  Rng ref_rng(9);
  const SsfResult reference =
      make_evaluator(base).run(ref_sampler, ref_rng, 200);
  EXPECT_GT(reference.failed, 0u);  // budget actually bites at 40 cycles
  for (const std::size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg = base;
    cfg.threads = threads;
    RandomSampler sampler(attack);
    Rng rng(9);
    const SsfResult res = make_evaluator(cfg).run(sampler, rng, 200);
    EXPECT_EQ(res.ssf(), reference.ssf());
    EXPECT_EQ(res.stats.count(), reference.stats.count());
    EXPECT_EQ(res.failed, reference.failed);
    EXPECT_EQ(res.failed_weight, reference.failed_weight);
    EXPECT_EQ(res.failure_counts, reference.failure_counts);
    ASSERT_EQ(res.records.size(), reference.records.size());
    for (std::size_t i = 0; i < res.records.size(); ++i) {
      EXPECT_EQ(res.records[i].path, reference.records[i].path) << i;
      EXPECT_EQ(res.records[i].fail_code, reference.records[i].fail_code) << i;
    }
  }
}

TEST(Isolation, GenerousBudgetChangesNothing) {
  // A budget that no sample reaches must leave the estimate bit-identical
  // to the unlimited run: the budget accounting itself is side-effect-free.
  const auto attack = test_attack();
  RandomSampler s1(attack), s2(attack);
  Rng r1(17), r2(17);
  const SsfResult unlimited = ctx().evaluator.run(s1, r1, 150);
  EvaluatorConfig cfg;
  cfg.cycle_budget = 100'000'000;
  cfg.sample_deadline_ms = 600'000;
  const SsfResult budgeted = make_evaluator(cfg).run(s2, r2, 150);
  EXPECT_EQ(budgeted.failed, 0u);
  EXPECT_EQ(budgeted.ssf(), unlimited.ssf());
  EXPECT_EQ(budgeted.sample_variance(), unlimited.sample_variance());
  EXPECT_EQ(budgeted.successes, unlimited.successes);
  EXPECT_EQ(budgeted.masked, unlimited.masked);
  EXPECT_EQ(budgeted.analytical, unlimited.analytical);
  EXPECT_EQ(budgeted.rtl, unlimited.rtl);
}

TEST(Isolation, SamplerThrowingMidBatchAbortsWithSamplerFailed) {
  // A failure while DRAWING is not isolatable: the deterministic sample
  // stream is gone, so the run reports kSamplerFailed instead of guessing.
  class ThrowingSampler final : public Sampler {
   public:
    FaultSample draw(Rng& rng) override {
      if (++calls_ > 10) throw std::runtime_error("importance table gone");
      return inner_.draw(rng);
    }
    const std::string& name() const override { return name_; }

   private:
    faultsim::AttackModel attack_ = test_attack();
    RandomSampler inner_{attack_};
    int calls_ = 0;
    std::string name_ = "throwing";
  };
  ThrowingSampler sampler;
  Rng rng(1);
  try {
    ctx().evaluator.run(sampler, rng, 64);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kSamplerFailed);
    // The message pinpoints the failing draw for diagnosis.
    EXPECT_NE(std::string(e.what()).find("throwing"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("10"), std::string::npos);
  }
}

TEST(Isolation, JournaledRunReportsSamplerFailureAsStatus) {
  class ThrowingSampler final : public Sampler {
   public:
    FaultSample draw(Rng&) override { throw std::runtime_error("boom"); }
    const std::string& name() const override { return name_; }

   private:
    std::string name_ = "throwing";
  };
  ThrowingSampler sampler;
  Rng rng(1);
  JournalOptions o;
  o.dir = ::testing::TempDir() + "/fav_sampler_fail";
  const Result<SsfResult> r =
      ctx().evaluator.run_journaled(sampler, rng, 16, o);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kSamplerFailed);
}

TEST(Isolation, IsolatedEvaluationMatchesPlainOnHealthySamples) {
  // The isolation wrapper must be a pure pass-through for samples that
  // evaluate cleanly: the oracle's record, bit for bit — and so must the
  // campaign that isolates every lane, at every word width and thread count.
  const auto attack = test_attack();
  RandomSampler sampler(attack);
  Rng rng(29);
  const std::vector<FaultSample> samples =
      ctx().evaluator.draw_batch(sampler, rng, 40);
  ScalarOracle oracle(ctx().evaluator);
  auto scratch = std::make_unique<EvalScratch>(ctx().evaluator);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SampleRecord isolated =
        ctx().evaluator.evaluate_sample_isolated(samples[i], scratch);
    expect_records_equal(isolated, oracle.evaluate(samples[i]), i);
    EXPECT_EQ(isolated.fail_code, ErrorCode::kOk);
    EXPECT_FALSE(isolated.retried);
  }
  expect_engine_matches_oracle(make_evaluator, {}, samples);
}

}  // namespace
}  // namespace fav::mc
