#include "scalar_oracle.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "../faultsim/scalar_flip_set.h"
#include "mc/journal.h"
#include "util/status.h"

namespace fav::mc {

ScalarOracle::ScalarOracle(const SsfEvaluator& engine)
    : engine_(&engine),
      analytical_(engine.benchmark(), engine.golden()),
      machine_(engine.golden().program()),
      gate_(engine.soc(), engine.golden().program()) {}

bool ScalarOracle::decide(const std::vector<int>& flips,
                          std::uint64_t first_faulty_cycle, OutcomePath* path,
                          EvalBudget& budget) {
  if (flips.empty()) {
    *path = OutcomePath::kMasked;
    return false;
  }
  const precharac::RegisterCharacterization* charac =
      engine_->characterization();
  if (engine_->config().use_analytical && charac != nullptr) {
    bool all_memory_type = true;
    for (const int bit : flips) all_memory_type &= charac->is_memory_type(bit);
    if (all_memory_type) {
      const auto verdict =
          analytical_.evaluate(machine_.state(), first_faulty_cycle);
      if (verdict.has_value()) {
        *path = OutcomePath::kAnalytical;
        return *verdict;
      }
    }
  }
  *path = OutcomePath::kRtl;
  const soc::SecurityBenchmark& bench = engine_->benchmark();
  while (!machine_.halted() && machine_.cycle() < bench.max_cycles) {
    budget.charge_cycles(1);
    machine_.step();
  }
  return bench.attack_succeeded(machine_.state(), machine_.ram());
}

SampleRecord ScalarOracle::evaluate(const faultsim::FaultSample& sample) {
  const EvaluatorConfig& cfg = engine_->config();
  SampleRecord rec;
  rec.sample = sample;
  engine_->technique().check_sample(sample);
  const std::uint64_t tt = engine_->target_cycle();
  if (static_cast<std::uint64_t>(sample.t) > tt) return rec;  // te = 0
  rec.te = tt - static_cast<std::uint64_t>(sample.t);

  EvalBudget budget(cfg.cycle_budget, cfg.sample_deadline_ms);
  std::uint64_t warmup = 0;
  engine_->golden().restore_into(machine_, rec.te, &warmup);
  budget.charge_cycles(warmup);
  std::set<int> flipped;
  for (int j = 0; j < sample.impact_cycles && !machine_.halted(); ++j) {
    budget.charge_cycles(1);
    gate_.load_state(machine_.state());
    gate_.mutable_ram() = machine_.ram();
    gate_.settle_inputs();
    const std::vector<netlist::NodeId> flipped_dffs =
        faultsim::oracle::flip_set(engine_->technique(), gate_.sim(), sample);
    machine_.step();
    for (const netlist::NodeId dff : flipped_dffs) {
      const int bit = engine_->soc().flat_bit_for_dff(dff);
      rtl::Machine::reg_map().flip_bit(machine_.mutable_state(), bit);
      flipped.insert(bit);
    }
  }
  rec.flipped_bits.assign(flipped.begin(), flipped.end());
  rec.success =
      decide(rec.flipped_bits,
             rec.te + static_cast<std::uint64_t>(sample.impact_cycles),
             &rec.path, budget);
  rec.contribution = rec.success ? sample.weight : 0.0;
  return rec;
}

SampleRecord ScalarOracle::evaluate_isolated(
    const faultsim::FaultSample& sample) {
  auto fail = [&](const std::exception& e, bool retried) {
    SampleRecord rec;
    rec.sample = sample;
    rec.path = OutcomePath::kFailed;
    const auto* status = dynamic_cast<const StatusError*>(&e);
    rec.fail_code =
        status != nullptr ? status->code() : ErrorCode::kSampleEvalFailed;
    rec.fail_reason = e.what();
    rec.retried = retried;
    return rec;
  };
  try {
    return evaluate(sample);
  } catch (const std::exception& e) {
    const SampleRecord first = fail(e, false);
    if (first.fail_code == ErrorCode::kCycleBudgetExceeded) {
      return first;
    }
  }
  try {
    SampleRecord rec = evaluate(sample);
    rec.retried = true;
    return rec;
  } catch (const std::exception& e) {
    return fail(e, true);
  }
}

SsfResult ScalarOracle::run(const std::vector<faultsim::FaultSample>& samples) {
  std::vector<SampleRecord> records;
  records.reserve(samples.size());
  for (const faultsim::FaultSample& s : samples) {
    records.push_back(evaluate_isolated(s));
  }
  return engine_->reduce_records(std::move(records));
}

void expect_records_equal(const SampleRecord& a, const SampleRecord& b,
                          std::size_t index) {
  EXPECT_TRUE(sample_matches(a.sample, b.sample)) << index;
  EXPECT_EQ(a.sample.weight, b.sample.weight) << index;
  EXPECT_EQ(a.te, b.te) << index;
  EXPECT_EQ(a.flipped_bits, b.flipped_bits) << index;
  EXPECT_EQ(a.path, b.path) << index;
  EXPECT_EQ(a.success, b.success) << index;
  EXPECT_EQ(a.contribution, b.contribution) << index;
  EXPECT_EQ(a.fail_code, b.fail_code) << index;
  EXPECT_EQ(a.fail_reason, b.fail_reason) << index;
  EXPECT_EQ(a.retried, b.retried) << index;
}

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
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.failed_weight, b.failed_weight);
  EXPECT_EQ(a.completed_weight, b.completed_weight);
  EXPECT_EQ(a.completed_weight_sq, b.completed_weight_sq);
  EXPECT_EQ(a.failure_counts, b.failure_counts);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.bit_contribution, b.bit_contribution);
  EXPECT_EQ(a.field_contribution, b.field_contribution);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    expect_records_equal(a.records[i], b.records[i], i);
  }
}

void expect_engine_matches_oracle(
    const std::function<SsfEvaluator(const EvaluatorConfig&)>& make,
    const EvaluatorConfig& base,
    const std::vector<faultsim::FaultSample>& samples) {
  const SsfEvaluator reference_engine = make(base);
  const SsfResult reference = ScalarOracle(reference_engine).run(samples);
  for (const std::size_t lanes : kOracleLanes) {
    for (const std::size_t threads : kOracleThreads) {
      SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                   " threads=" + std::to_string(threads));
      EvaluatorConfig cfg = base;
      cfg.batch_lanes = lanes;
      cfg.threads = threads;
      expect_bitwise_equal(make(cfg).run_batch(samples), reference);
    }
  }
}

}  // namespace fav::mc
