// The scalar reference model of the paper's Fig. 5 flow, kept only as a test
// oracle for the word-parallel engine (DESIGN.md §6i).
//
// One sample at a time, one impact cycle at a time: restore the golden RTL
// state at te = Tt - t, hand it to the gate level and settle the injection
// cycle, ask the scalar flip-set oracle (tests/faultsim/scalar_flip_set.h)
// for the latched errors, step the RTL machine and overlay them; after the
// last impact cycle, decide the outcome (masked, analytical shortcut, or RTL
// resume + success oracle).
// Budget charges, retry policy and failure records follow the engine's
// contract, so SsfEvaluator must reproduce every record bit for bit at every
// word width and thread count.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "faultsim/technique.h"
#include "mc/analytical.h"
#include "mc/evaluator.h"
#include "rtl/machine.h"
#include "soc/gate_machine.h"

namespace fav::mc {

class ScalarOracle {
 public:
  /// Evaluates with `engine`'s technique, benchmark, golden run,
  /// characterization and config (analytical shortcut, cycle budget, retry
  /// policy). `engine` must outlive the oracle.
  explicit ScalarOracle(const SsfEvaluator& engine);

  /// One sample; throws on an invalid sample or a budget overrun.
  SampleRecord evaluate(const faultsim::FaultSample& sample);
  /// One sample under campaign isolation: a failure is retried once (unless
  /// it is a deterministic cycle-budget overrun) and otherwise recorded as
  /// OutcomePath::kFailed with its code and reason.
  SampleRecord evaluate_isolated(const faultsim::FaultSample& sample);
  /// Every sample isolated, folded by the engine's sample-order reduction.
  SsfResult run(const std::vector<faultsim::FaultSample>& samples);

 private:
  bool decide(const std::vector<int>& flips, std::uint64_t first_faulty_cycle,
              OutcomePath* path, EvalBudget& budget);

  const SsfEvaluator* engine_;
  AnalyticalEvaluator analytical_;
  rtl::Machine machine_;
  soc::GateLevelMachine gate_;
};

/// Word widths and thread counts the engine is checked at.
inline constexpr std::size_t kOracleLanes[] = {1, 2, 7, 64};
inline constexpr std::size_t kOracleThreads[] = {1, 4};

/// Every field of two records, failure metadata included.
void expect_records_equal(const SampleRecord& a, const SampleRecord& b,
                          std::size_t index);
/// Bitwise equality of two results: estimates, counters, traces,
/// contribution maps and every record field.
void expect_bitwise_equal(const SsfResult& a, const SsfResult& b);

/// Runs `samples` through run_batch of the engine `make(cfg)` builds, for
/// `base` at every width in kOracleLanes and thread count in
/// kOracleThreads, and expects each result to equal the oracle's.
void expect_engine_matches_oracle(
    const std::function<SsfEvaluator(const EvaluatorConfig&)>& make,
    const EvaluatorConfig& base,
    const std::vector<faultsim::FaultSample>& samples);

}  // namespace fav::mc
