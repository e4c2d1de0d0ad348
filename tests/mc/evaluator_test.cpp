#include "mc/evaluator.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "scalar_oracle.h"
#include "soc/benchmark.h"
#include "util/check.h"

namespace fav::mc {
namespace {

using faultsim::FaultSample;
using netlist::NodeId;

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

int perm_bit(int region, int bit) {
  const auto& map = soc::SocNetlist::reg_map();
  return map.field(map.field_index("mpu" + std::to_string(region) + "_perm"))
             .offset +
         bit;
}

TEST(SsfEvaluator, TargetCycle) {
  EXPECT_EQ(ctx().evaluator.target_cycle(),
            *ctx().golden.first_violation_cycle());
}

TEST(SsfEvaluator, EmptyFlipsAreMasked) {
  OutcomePath path;
  EXPECT_FALSE(ctx().evaluator.outcome_for_flips(50, {}, &path));
  EXPECT_EQ(path, OutcomePath::kMasked);
}

TEST(SsfEvaluator, GrantWriteFlipSucceedsAnalytically) {
  // mpu1_perm bit 1 (write) is memory-type: flipping it grants the illegal
  // write and the analytical path decides it.
  OutcomePath path;
  const bool success =
      ctx().evaluator.outcome_for_flips(60, {perm_bit(1, 1)}, &path);
  EXPECT_TRUE(success);
  EXPECT_EQ(path, OutcomePath::kAnalytical);
}

TEST(SsfEvaluator, ComputationFlipGoesToRtl) {
  // A PC bit is computation-type: outcome requires RTL resumption.
  const auto& map = soc::SocNetlist::reg_map();
  const int pc_bit = map.field(map.field_index("pc")).offset;
  OutcomePath path;
  ctx().evaluator.outcome_for_flips(60, {pc_bit}, &path);
  EXPECT_EQ(path, OutcomePath::kRtl);
}

TEST(SsfEvaluator, AnalyticalAgreesWithForcedRtl) {
  // With the analytical path disabled, outcomes must not change.
  EvaluatorConfig cfg;
  cfg.use_analytical = false;
  SsfEvaluator rtl_only(ctx().soc, ctx().placement, ctx().injector,
                        ctx().bench, ctx().golden, &ctx().charac, cfg);
  for (const std::uint64_t te : {40ull, 60ull, 80ull, 100ull}) {
    for (const std::vector<int> flips :
         {std::vector<int>{perm_bit(1, 1)}, std::vector<int>{perm_bit(1, 0)},
          std::vector<int>{perm_bit(0, 2)},
          std::vector<int>{perm_bit(1, 1), perm_bit(1, 2)}}) {
      OutcomePath p1, p2;
      const bool a = ctx().evaluator.outcome_for_flips(te, flips, &p1);
      const bool b = rtl_only.outcome_for_flips(te, flips, &p2);
      EXPECT_EQ(a, b) << "te=" << te;
      EXPECT_EQ(p2, OutcomePath::kRtl);
    }
  }
}

TEST(SsfEvaluator, SampleBeforeProgramStartIsMasked) {
  FaultSample s;
  s.t = static_cast<int>(ctx().evaluator.target_cycle()) + 5;
  s.center = ctx().placement.placed_nodes().front();
  s.radius = 1.0;
  const SampleRecord rec = ctx().evaluator.evaluate_sample(s);
  EXPECT_EQ(rec.path, OutcomePath::kMasked);
  EXPECT_FALSE(rec.success);
  EXPECT_EQ(rec.contribution, 0.0);
}

TEST(SsfEvaluator, EvaluateSampleFillsRecord) {
  FaultSample s;
  s.t = 10;
  s.center = ctx().placement.placed_nodes().front();
  s.radius = 2.0;
  s.strike_frac = 0.9;
  s.weight = 0.5;
  const SampleRecord rec = ctx().evaluator.evaluate_sample(s);
  EXPECT_EQ(rec.te, ctx().evaluator.target_cycle() - 10);
  EXPECT_EQ(rec.contribution, rec.success ? 0.5 : 0.0);
  for (const int bit : rec.flipped_bits) {
    EXPECT_GE(bit, 0);
    EXPECT_LT(bit, soc::SocNetlist::reg_map().total_bits());
  }
}

TEST(SsfEvaluator, DirectStrikeOnGrantBitSucceeds) {
  // Aim a zero-radius spot exactly at the mpu1_perm[1] DFF at t >= 1.
  const NodeId dff = ctx().soc.dff_for_bit(perm_bit(1, 1));
  FaultSample s;
  s.t = 5;
  s.center = dff;
  s.radius = 0.0;
  s.weight = 1.0;
  const SampleRecord rec = ctx().evaluator.evaluate_sample(s);
  ASSERT_EQ(rec.flipped_bits.size(), 1u);
  EXPECT_EQ(rec.flipped_bits[0], perm_bit(1, 1));
  EXPECT_TRUE(rec.success);
  EXPECT_EQ(rec.path, OutcomePath::kAnalytical);
}

TEST(SsfEvaluator, DirectStrikeAtTZeroIsTooLate) {
  const NodeId dff = ctx().soc.dff_for_bit(perm_bit(1, 1));
  FaultSample s;
  s.t = 0;  // latched at the end of the target cycle: too late
  s.center = dff;
  s.radius = 0.0;
  s.weight = 1.0;
  const SampleRecord rec = ctx().evaluator.evaluate_sample(s);
  EXPECT_FALSE(rec.success);
}

TEST(SsfEvaluator, RunAccumulatesConsistentCounts) {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  RandomSampler sampler(attack);
  Rng rng(11);
  const SsfResult res = ctx().evaluator.run(sampler, rng, 400);
  EXPECT_EQ(res.stats.count(), 400u);
  EXPECT_EQ(res.masked + res.analytical + res.rtl, 400u);
  EXPECT_EQ(res.records.size(), 400u);
  EXPECT_EQ(res.trace.size(), 400u / 50);
  EXPECT_GE(res.ssf(), 0.0);
  EXPECT_LE(res.ssf(), 1.0);
  // Per-field attribution sums to the total success contribution.
  double attributed = 0;
  for (const auto& [f, c] : res.field_contribution) attributed += c;
  double contributed = 0;
  for (const auto& r : res.records) contributed += r.contribution;
  EXPECT_NEAR(attributed, contributed, 1e-9);
}

TEST(SsfEvaluator, DeterministicForSeed) {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  RandomSampler s1(attack), s2(attack);
  Rng r1(21), r2(21);
  const SsfResult a = ctx().evaluator.run(s1, r1, 150);
  const SsfResult b = ctx().evaluator.run(s2, r2, 150);
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.masked, b.masked);
}

// Reference implementation of the seed's sequential engine: interleaved
// draw/evaluate with a fresh machine per sample and streaming accumulation.
// The parallel engine must reproduce it bit for bit.
SsfResult seed_sequential_run(const SsfEvaluator& ev, Sampler& sampler,
                              Rng& rng, std::size_t n,
                              const EvaluatorConfig& cfg) {
  const auto& map = soc::SocNetlist::reg_map();
  SsfResult result;
  for (std::size_t i = 0; i < n; ++i) {
    SampleRecord rec = ev.evaluate_sample(sampler.draw(rng));
    result.stats.add(rec.contribution);
    switch (rec.path) {
      case OutcomePath::kMasked: ++result.masked; break;
      case OutcomePath::kAnalytical: ++result.analytical; break;
      case OutcomePath::kRtl: ++result.rtl; break;
      case OutcomePath::kFailed: ++result.failed; break;  // not reachable here
    }
    if (rec.success) {
      ++result.successes;
      std::set<int> fields;
      for (const int bit : rec.flipped_bits) {
        fields.insert(map.locate(bit).first);
      }
      if (!fields.empty()) {
        const double share =
            rec.contribution / static_cast<double>(fields.size());
        for (const int f : fields) result.field_contribution[f] += share;
      }
      if (!rec.flipped_bits.empty()) {
        const double share =
            rec.contribution / static_cast<double>(rec.flipped_bits.size());
        for (const int bit : rec.flipped_bits) {
          result.bit_contribution[bit] += share;
        }
      }
    }
    if ((i + 1) % cfg.trace_stride == 0) {
      result.trace.push_back(result.stats.mean());
    }
    if (cfg.keep_records) result.records.push_back(std::move(rec));
  }
  return result;
}

/// Equality of the fields seed_sequential_run accumulates.
void expect_seed_fields_equal(const SsfResult& a, const SsfResult& b) {
  EXPECT_EQ(a.ssf(), b.ssf());
  EXPECT_EQ(a.sample_variance(), b.sample_variance());
  EXPECT_EQ(a.stats.count(), b.stats.count());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
  EXPECT_EQ(a.masked, b.masked);
  EXPECT_EQ(a.analytical, b.analytical);
  EXPECT_EQ(a.rtl, b.rtl);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.trace, b.trace);  // element-wise bitwise double equality
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].te, b.records[i].te) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].success, b.records[i].success) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
  }
}

TEST(SsfEvaluatorParallel, ThreadCountDoesNotChangeAnyResultBit) {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();

  // Reference: the seed engine's literal accumulation, threads-free.
  RandomSampler seed_sampler(attack);
  Rng seed_rng(31);
  const SsfResult seed = seed_sequential_run(
      ctx().evaluator, seed_sampler, seed_rng, 300, EvaluatorConfig{});

  for (const std::size_t threads : {1u, 2u, 8u}) {
    EvaluatorConfig cfg;
    cfg.threads = threads;
    SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                    ctx().golden, &ctx().charac, cfg);
    RandomSampler sampler(attack);
    Rng rng(31);
    const SsfResult res = ev.run(sampler, rng, 300);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_seed_fields_equal(res, seed);
  }
}

TEST(SsfEvaluatorParallel, AutoThreadsMatchesSequential) {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 9;
  attack.candidate_centers = ctx().placement.placed_nodes();
  EvaluatorConfig cfg;
  cfg.threads = 0;  // hardware concurrency
  SsfEvaluator auto_ev(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                       ctx().golden, &ctx().charac, cfg);
  RandomSampler s1(attack), s2(attack);
  Rng r1(7), r2(7);
  const SsfResult parallel = auto_ev.run(s1, r1, 120);
  const SsfResult sequential = ctx().evaluator.run(s2, r2, 120);
  expect_bitwise_equal(parallel, sequential);
}

TEST(SsfEvaluator, ScratchReuseMatchesFreshMachines) {
  // Evaluating a stream of samples through one scratch must give exactly the
  // oracle's per-sample records, as must fresh-machine evaluation and the
  // campaign over the same stream at every word width and thread count.
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  RandomSampler sampler(attack);
  Rng rng(13);
  const std::vector<FaultSample> samples =
      ctx().evaluator.draw_batch(sampler, rng, 60);
  ScalarOracle oracle(ctx().evaluator);
  EvalScratch scratch(ctx().evaluator);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SampleRecord expected = oracle.evaluate(samples[i]);
    expect_records_equal(ctx().evaluator.evaluate_sample(samples[i]),
                         expected, i);
    expect_records_equal(ctx().evaluator.evaluate_sample(samples[i], scratch),
                         expected, i);
  }
  expect_engine_matches_oracle(
      [](const EvaluatorConfig& cfg) {
        return SsfEvaluator(ctx().soc, ctx().placement, ctx().injector,
                            ctx().bench, ctx().golden, &ctx().charac, cfg);
      },
      {}, samples);
}

TEST(SsfEvaluatorParallel, WorkerFailureIsIsolatedNotFatal) {
  // An invalid sample evaluated on a worker must not abort the campaign: it
  // is retried once and then recorded as kFailed with the reason, while the
  // estimate stays defined over the completed (here: zero) samples.
  class BadSampler final : public Sampler {
   public:
    faultsim::FaultSample draw(Rng&) override {
      faultsim::FaultSample s;
      s.t = 5;
      s.center = ctx().placement.placed_nodes().front();
      s.impact_cycles = 0;  // rejected by evaluate_sample
      return s;
    }
    const std::string& name() const override { return name_; }

   private:
    std::string name_ = "bad";
  };
  EvaluatorConfig cfg;
  cfg.threads = 4;
  SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                  ctx().golden, &ctx().charac, cfg);
  BadSampler sampler;
  Rng rng(1);
  const SsfResult res = ev.run(sampler, rng, 64);
  EXPECT_EQ(res.failed, 64u);
  EXPECT_EQ(res.retried, 64u);  // each failure re-attempted on fresh scratch
  EXPECT_EQ(res.stats.count(), 0u);
  EXPECT_EQ(res.failure_counts.at(ErrorCode::kSampleEvalFailed), 64u);
  EXPECT_EQ(res.failed_weight_fraction(), 1.0);
  ASSERT_EQ(res.records.size(), 64u);
  EXPECT_EQ(res.records[0].path, OutcomePath::kFailed);
  EXPECT_FALSE(res.records[0].fail_reason.empty());
}

TEST(SsfEvaluator, MultiCycleImpactAccumulatesErrors) {
  // Striking the same spot on consecutive cycles settles each later cycle
  // on the already-corrupted state and overlays that cycle's flips on it.
  // The spot covers the memory-type perm bit, which every strike upsets: an
  // odd number of strikes grants the illegal write, an even number flips
  // the bit back — yet the record lists the bit either way. The engine must
  // match the oracle's cycle-by-cycle flow record for record.
  const NodeId dff = ctx().soc.dff_for_bit(perm_bit(1, 1));
  FaultSample one;
  one.t = 10;
  one.center = dff;
  one.radius = 1.2;
  one.weight = 1.0;
  ScalarOracle oracle(ctx().evaluator);
  for (const int cycles : {1, 2, 3}) {
    SCOPED_TRACE("impact_cycles=" + std::to_string(cycles));
    FaultSample s = one;
    s.impact_cycles = cycles;
    const SampleRecord rec = ctx().evaluator.evaluate_sample(s);
    expect_records_equal(rec, oracle.evaluate(s), 0);
    EXPECT_EQ(rec.flipped_bits, std::vector<int>{perm_bit(1, 1)});
    EXPECT_EQ(rec.path, OutcomePath::kAnalytical);
    EXPECT_EQ(rec.success, cycles % 2 == 1);
    EXPECT_EQ(rec.te, ctx().evaluator.target_cycle() - 10);
  }
}

TEST(SsfEvaluator, MultiCycleSamplerPropagatesModel) {
  faultsim::AttackModel attack;
  attack.t_min = 1;
  attack.t_max = 10;
  attack.candidate_centers = ctx().placement.placed_nodes();
  attack.impact_cycles = 4;
  RandomSampler sampler(attack);
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sampler.draw(rng).impact_cycles, 4);
  }
  const SsfResult res = ctx().evaluator.run(sampler, rng, 100);
  EXPECT_EQ(res.stats.count(), 100u);
}

TEST(SsfEvaluator, InvalidImpactCyclesRejected) {
  FaultSample s;
  s.t = 5;
  s.center = ctx().placement.placed_nodes().front();
  s.impact_cycles = 0;
  EXPECT_THROW(ctx().evaluator.evaluate_sample(s), fav::CheckError);
}

TEST(SsfEvaluator, NegativeTRejected) {
  FaultSample s;
  s.t = -1;
  EXPECT_THROW(ctx().evaluator.evaluate_sample(s), fav::CheckError);
}

TEST(SsfEvaluator, ForeignTechniqueSampleIsIsolatedNotFatal) {
  // A radiation engine handed a glitch-tagged sample: check_sample throws,
  // and the campaign isolation layer must turn that into a kFailed record
  // instead of crashing the run.
  FaultSample s;
  s.technique = faultsim::TechniqueKind::kClockGlitch;
  s.t = 5;
  s.depth = 0.5;
  EXPECT_THROW(ctx().evaluator.evaluate_sample(s), fav::CheckError);
  auto scratch = std::make_unique<EvalScratch>(ctx().evaluator);
  const SampleRecord rec =
      ctx().evaluator.evaluate_sample_isolated(s, scratch);
  EXPECT_EQ(rec.path, OutcomePath::kFailed);
  EXPECT_NE(rec.fail_code, ErrorCode::kOk);
  EXPECT_FALSE(rec.fail_reason.empty());
}

TEST(SsfEvaluator, RecordCapacityCapsRecordsNotTheEstimate) {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();

  RandomSampler ref_sampler(attack);
  Rng ref_rng(29);
  const SsfResult uncapped = ctx().evaluator.run(ref_sampler, ref_rng, 100);

  MetricsSink metrics;
  EvaluatorConfig cfg;
  cfg.record_capacity = 20;
  cfg.metrics = &metrics;
  SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                  ctx().golden, &ctx().charac, cfg);
  RandomSampler sampler(attack);
  Rng rng(29);
  const SsfResult capped = ev.run(sampler, rng, 100);

  // Records stop at the cap — keeping the sample-index-ordered prefix, so
  // the kept records are thread-count independent — while every estimate
  // and counter still covers all 100 samples.
  ASSERT_EQ(capped.records.size(), 20u);
  EXPECT_EQ(metrics.counter("eval.records_dropped"), 80u);
  EXPECT_EQ(capped.ssf(), uncapped.ssf());
  EXPECT_EQ(capped.stats.count(), 100u);
  EXPECT_EQ(capped.trace, uncapped.trace);
  EXPECT_EQ(capped.bit_contribution, uncapped.bit_contribution);
  for (std::size_t i = 0; i < capped.records.size(); ++i) {
    EXPECT_EQ(capped.records[i].contribution, uncapped.records[i].contribution)
        << i;
    EXPECT_EQ(capped.records[i].flipped_bits, uncapped.records[i].flipped_bits)
        << i;
  }
}

TEST(SsfEvaluator, RecordCapacityIsThreadCountIndependent) {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 19;
  attack.candidate_centers = ctx().placement.placed_nodes();
  SsfResult reference;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EvaluatorConfig cfg;
    cfg.record_capacity = 15;
    cfg.threads = threads;
    SsfEvaluator ev(ctx().soc, ctx().placement, ctx().injector, ctx().bench,
                    ctx().golden, &ctx().charac, cfg);
    RandomSampler sampler(attack);
    Rng rng(31);
    SsfResult res = ev.run(sampler, rng, 80);
    ASSERT_EQ(res.records.size(), 15u);
    if (threads == 1) {
      reference = std::move(res);
    } else {
      expect_bitwise_equal(res, reference);
    }
  }
}

}  // namespace
}  // namespace fav::mc
