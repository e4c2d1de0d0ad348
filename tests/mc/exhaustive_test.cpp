// Technique-generic exhaustive fault-space sweeps (DESIGN.md §6l): the
// streamed enumeration must be bitwise-identical to reducing evaluate_batch
// over the materialized space at every thread and lane count, agree with
// the importance-sampled Monte Carlo estimate, carry coverage accounting,
// and survive kill + resume through the journal — for radiation,
// clock-glitch and voltage-glitch techniques alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "faultsim/glitch.h"
#include "mc/evaluator.h"
#include "mc/journal.h"
#include "soc/benchmark.h"
#include "util/check.h"

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

  SsfEvaluator make(const faultsim::AttackTechnique& technique,
                    const EvaluatorConfig& cfg = {}) const {
    return SsfEvaluator(soc, technique, bench, golden, &charac, cfg);
  }
};

Context& ctx() {
  static Context c;
  return c;
}

faultsim::GlitchAttackModel glitch_model() {
  faultsim::GlitchAttackModel model(faultsim::TechniqueKind::kClockGlitch);
  model.t_min = 1;
  model.t_max = 20;
  model.levels = {0.4, 0.7};
  return model;
}

faultsim::GlitchAttackModel voltage_model() {
  faultsim::GlitchAttackModel model(faultsim::TechniqueKind::kVoltageGlitch);
  model.t_min = 1;
  model.t_max = 10;
  model.levels = {0.3, 0.5};
  return model;
}

/// Small radiation grid: a strided subset of the placement as the sub-block,
/// a short timing window, and the strike instant pinned to the {0.0} grid so
/// the sampled and exhaustive estimands coincide.
faultsim::AttackModel radiation_model() {
  faultsim::AttackModel attack;
  attack.t_min = 0;
  attack.t_max = 9;
  const auto& nodes = ctx().placement.placed_nodes();
  for (std::size_t i = 0; i < nodes.size(); i += 150) {
    attack.candidate_centers.push_back(nodes[i]);
  }
  attack.strike_fracs = {0.0};
  return attack;
}

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("fav_ex_" + name);
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
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].sample.t, b.records[i].sample.t) << i;
    EXPECT_EQ(a.records[i].sample.center, b.records[i].sample.center) << i;
    EXPECT_EQ(a.records[i].sample.depth, b.records[i].sample.depth) << i;
    EXPECT_EQ(a.records[i].flipped_bits, b.records[i].flipped_bits) << i;
    EXPECT_EQ(a.records[i].path, b.records[i].path) << i;
    EXPECT_EQ(a.records[i].contribution, b.records[i].contribution) << i;
  }
}

TEST(ExhaustiveSweep, UnboundSpaceIsRejected) {
  faultsim::GlitchTechnique technique(ctx().glitch,
                                     faultsim::TechniqueKind::kClockGlitch);
  const SsfEvaluator engine = ctx().make(technique);
  EXPECT_THROW(engine.run_exhaustive(), StatusError);
}

TEST(ExhaustiveSweep, StreamingSweepMatchesMaterializedBatch) {
  // Regression for the old evaluate_exact grid loop: the chunked streaming
  // sweep must be bitwise-identical to reducing evaluate_batch over the
  // materialized enumeration (chunk boundaries may split equal-t groups
  // across word-parallel batches — batching is contractually a no-op).
  faultsim::GlitchTechnique technique(ctx().glitch,
                                     faultsim::TechniqueKind::kClockGlitch);
  technique.bind_space(glitch_model());
  const SsfEvaluator engine = ctx().make(technique);
  const std::uint64_t space = technique.space_size();
  ASSERT_EQ(space, 40u);

  std::vector<faultsim::FaultSample> all;
  technique.enumerate(0, space, all);
  const SsfResult batch = engine.reduce_records(engine.evaluate_batch(all));
  const SsfResult streamed = engine.run_exhaustive();

  expect_bitwise_equal(streamed, batch);
  EXPECT_EQ(streamed.fault_space_size, space);
  EXPECT_DOUBLE_EQ(streamed.coverage(), 1.0);
  EXPECT_FALSE(streamed.interrupted);
  // Sampled/batch results bind no space: coverage is meaningless there.
  EXPECT_EQ(batch.fault_space_size, 0u);
  EXPECT_DOUBLE_EQ(batch.coverage(), 0.0);
}

TEST(ExhaustiveSweep, SpaceLimitCapsCoverage) {
  faultsim::GlitchTechnique technique(ctx().glitch,
                                     faultsim::TechniqueKind::kClockGlitch);
  technique.bind_space(glitch_model());
  const SsfEvaluator engine = ctx().make(technique);

  const SsfResult capped = engine.run_exhaustive(10);
  EXPECT_EQ(capped.evaluated, 10u);
  EXPECT_EQ(capped.fault_space_size, 40u);
  EXPECT_DOUBLE_EQ(capped.coverage(), 0.25);

  std::vector<faultsim::FaultSample> prefix;
  technique.enumerate(0, 10, prefix);
  expect_bitwise_equal(capped,
                       engine.reduce_records(engine.evaluate_batch(prefix)));
}

TEST(ExhaustiveSweep, EvaluateBatchOfASliceMatchesTheSweep) {
  // A supervised worker's seam: a slice evaluated at its campaign index
  // reports those indices to on_sample and yields the sweep's own records,
  // bit for bit.
  faultsim::RadiationTechnique technique(ctx().placement, ctx().injector);
  technique.bind_space(radiation_model());
  const std::size_t lo = 37, hi = 101;
  ASSERT_GT(technique.space_size(), hi);
  std::vector<faultsim::FaultSample> slice;
  technique.enumerate(lo, hi, slice);
  std::mutex mu;
  std::vector<std::size_t> seen;
  EvaluatorConfig cfg;
  cfg.threads = 2;
  cfg.on_sample = [&](const SampleRecord&, std::size_t index) {
    const std::lock_guard<std::mutex> lock(mu);
    seen.push_back(index);
  };
  const std::vector<SampleRecord> records =
      ctx().make(technique, cfg).evaluate_batch(slice, lo);
  std::sort(seen.begin(), seen.end());
  std::vector<std::size_t> expected(hi - lo);
  std::iota(expected.begin(), expected.end(), lo);
  EXPECT_EQ(seen, expected);

  const SsfResult sweep = ctx().make(technique).run_exhaustive(hi);
  ASSERT_EQ(records.size(), hi - lo);
  ASSERT_EQ(sweep.records.size(), hi);
  for (std::size_t i = lo; i < hi; ++i) {
    std::string got, want;
    serialize_record(records[i - lo], got);
    serialize_record(sweep.records[i], want);
    EXPECT_EQ(got, want) << "sample " << i;
  }
}

TEST(ExhaustiveSweep, RadiationBitwiseAcrossThreadsAndLanesWithin3Sigma) {
  // The exhaustive radiation sweep is the exact mean over the bound grid:
  // every (threads, lanes) configuration must reproduce it bit for bit, and
  // the importance-sampled Monte Carlo estimate over the same holistic model
  // must agree within its own 3-sigma interval.
  const faultsim::AttackModel attack = radiation_model();
  faultsim::RadiationTechnique technique(ctx().placement, ctx().injector);
  technique.bind_space(attack);
  const std::uint64_t space = technique.space_size();
  ASSERT_EQ(space, static_cast<std::uint64_t>(attack.t_count()) *
                       attack.candidate_centers.size());

  SsfResult reference;
  bool have_reference = false;
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t lanes : {1u, 64u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " lanes=" + std::to_string(lanes));
      EvaluatorConfig cfg;
      cfg.threads = threads;
      cfg.batch_lanes = lanes;
      const SsfEvaluator engine = ctx().make(technique, cfg);
      SsfResult result = engine.run_exhaustive();
      EXPECT_EQ(result.evaluated, space);
      EXPECT_DOUBLE_EQ(result.coverage(), 1.0);
      if (!have_reference) {
        reference = std::move(result);
        have_reference = true;
      } else {
        expect_bitwise_equal(result, reference);
      }
    }
  }

  precharac::SamplingModel model(ctx().soc, ctx().placement, ctx().cone,
                                 ctx().signatures, ctx().charac, attack);
  ImportanceSampler sampler(model);
  EvaluatorConfig cfg;
  cfg.threads = 4;
  const SsfEvaluator engine = ctx().make(technique, cfg);
  Rng rng(42);
  const SsfResult mc = engine.run(sampler, rng, 1500);
  const double tolerance = std::max(3.0 * mc.stats.standard_error(), 1e-12);
  EXPECT_NEAR(mc.ssf(), reference.ssf(), tolerance);
}

TEST(ExhaustiveSweep, VoltageGlitchKillAndResumeIsBitwiseIdentical) {
  // A voltage-glitch sweep killed mid-campaign (journal torn back to a
  // prefix, exactly what SIGKILL leaves behind) and resumed must reproduce
  // the uninterrupted sweep bit for bit — the enumeration-index contract.
  faultsim::GlitchTechnique technique(ctx().glitch,
                                     faultsim::TechniqueKind::kVoltageGlitch);
  technique.bind_space(voltage_model());
  const SsfEvaluator engine = ctx().make(technique);
  const SsfResult reference = engine.run_exhaustive();
  EXPECT_EQ(reference.fault_space_size, 20u);
  EXPECT_DOUBLE_EQ(reference.coverage(), 1.0);

  JournalOptions jopt;
  jopt.shard_size = 4;
  jopt.fingerprint = 0x70177A6E;
  jopt.context = "voltage_exhaustive_test";

  const std::string dir = fresh_dir("voltage_resume");
  jopt.dir = dir;
  jopt.resume = false;
  Result<SsfResult> full = engine.run_exhaustive_journaled(jopt);
  ASSERT_TRUE(full.is_ok()) << full.status().to_string();
  expect_bitwise_equal(full.value(), reference);
  EXPECT_EQ(full.value().fault_space_size, 20u);

  const fs::path file = fs::path(dir) / "campaign.fj";
  fs::resize_file(file, fs::file_size(file) / 2);

  jopt.resume = true;
  Result<SsfResult> resumed = engine.run_exhaustive_journaled(jopt);
  ASSERT_TRUE(resumed.is_ok()) << resumed.status().to_string();
  expect_bitwise_equal(resumed.value(), reference);
  EXPECT_DOUBLE_EQ(resumed.value().coverage(), 1.0);
}

TEST(ExhaustiveSweep, VoltageGlitchMonteCarloAgreesWithExactWithin3Sigma) {
  const faultsim::GlitchAttackModel model = voltage_model();
  faultsim::GlitchTechnique technique(ctx().glitch,
                                     faultsim::TechniqueKind::kVoltageGlitch);
  technique.bind_space(model);
  const SsfEvaluator engine = ctx().make(technique);
  const SsfResult exact = engine.run_exhaustive();

  GlitchSampler sampler(model, engine.target_cycle());
  Rng rng(7);
  const SsfResult mc = engine.run(sampler, rng, 800);
  const double tolerance = std::max(3.0 * mc.stats.standard_error(), 1e-12);
  EXPECT_NEAR(mc.ssf(), exact.ssf(), tolerance);
}

}  // namespace
}  // namespace fav::mc
