// Countermeasure evaluation: selective register hardening (paper Section 6).
//
// The SSF attribution identifies the small set of registers responsible for
// almost all successful attacks ("3% of registers contribute >95% of SSF").
// Hardening replaces those register cells with error-resilient flip-flops
// ([19, 20]: ~10x better resilience at ~3x cell area). Because every
// register-map bit is one DFF cell in the elaborated netlist, selection and
// protection work at bit granularity; field-level helpers exist for
// human-readable reports.
//
// The analysis re-evaluates the recorded Monte Carlo samples with each flip
// of a hardened cell suppressed with probability (1 - 1/resilience),
// yielding an unbiased estimate of the hardened design's SSF, plus the area
// overhead of the change.
#pragma once

#include <vector>

#include "mc/evaluator.h"
#include "util/rng.h"

namespace fav::core {

struct HardeningOptions {
  /// Upset-rate improvement of a hardened cell (10x per [19, 20]).
  double resilience_factor = 10.0;
  /// Cell-area ratio hardened/standard (3x per [19, 20]).
  double area_factor = 3.0;
  /// Area model in gate equivalents.
  double dff_area = 6.0;
  double gate_area = 1.0;
};

struct HardeningReport {
  std::vector<int> protected_bits;  // flat register-map bits (= DFF cells)
  std::size_t total_register_bits = 0;
  double base_ssf = 0;
  double hardened_ssf = 0;
  double area_overhead = 0;  // fraction of total design area added

  double improvement() const {
    return hardened_ssf > 0 ? base_ssf / hardened_ssf : 0.0;
  }
  double protected_register_fraction() const {
    return total_register_bits > 0
               ? static_cast<double>(protected_bits.size()) /
                     static_cast<double>(total_register_bits)
               : 0.0;
  }
};

/// Selects the smallest set of register cells (flat bits) whose summed SSF
/// attribution reaches `coverage` (e.g. 0.95) of the total, greedily by
/// descending contribution.
std::vector<int> select_critical_bits(const mc::SsfResult& result,
                                      double coverage);

/// Field-level variant for reports (e.g. "which named registers matter").
std::vector<int> select_critical_fields(const mc::SsfResult& result,
                                        double coverage);

/// Cumulative attribution share of the given cells.
double attribution_coverage_bits(const mc::SsfResult& result,
                                 const std::vector<int>& bits);
double attribution_coverage(const mc::SsfResult& result,
                            const std::vector<int>& fields);

/// Re-evaluates `result`'s samples with the given cells hardened and
/// computes the area overhead against the evaluated netlist. A changed
/// sample is re-decided by overlaying its filtered flip set once, after its
/// injection cycle (SsfEvaluator::outcome_for_flips), which is the engine's
/// fault model only for single-cycle samples: a record with
/// impact_cycles > 1 is rejected (EnsureError).
HardeningReport evaluate_hardening(const mc::SsfEvaluator& evaluator,
                                   const soc::SocNetlist& soc,
                                   const mc::SsfResult& result,
                                   const std::vector<int>& protected_bits,
                                   const HardeningOptions& options, Rng& rng);

}  // namespace fav::core
