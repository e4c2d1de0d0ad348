#include "core/hardening.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace fav::core {

using rtl::Machine;
using rtl::RegisterMap;

namespace {

std::vector<int> select_greedy(const std::map<int, double>& contribution,
                               double coverage) {
  FAV_ENSURE(coverage > 0.0 && coverage <= 1.0);
  std::vector<std::pair<int, double>> ranked(contribution.begin(),
                                             contribution.end());
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  double total = 0;
  for (const auto& [k, c] : ranked) total += c;
  std::vector<int> out;
  double acc = 0;
  for (const auto& [k, c] : ranked) {
    if (total > 0 && acc / total >= coverage) break;
    out.push_back(k);
    acc += c;
  }
  return out;
}

double coverage_of(const std::map<int, double>& contribution,
                   const std::vector<int>& keys) {
  double total = 0;
  for (const auto& [k, c] : contribution) total += c;
  if (total == 0) return 0;
  double covered = 0;
  for (const int k : keys) {
    const auto it = contribution.find(k);
    if (it != contribution.end()) covered += it->second;
  }
  return covered / total;
}

}  // namespace

std::vector<int> select_critical_bits(const mc::SsfResult& result,
                                      double coverage) {
  return select_greedy(result.bit_contribution, coverage);
}

std::vector<int> select_critical_fields(const mc::SsfResult& result,
                                        double coverage) {
  return select_greedy(result.field_contribution, coverage);
}

double attribution_coverage_bits(const mc::SsfResult& result,
                                 const std::vector<int>& bits) {
  return coverage_of(result.bit_contribution, bits);
}

double attribution_coverage(const mc::SsfResult& result,
                            const std::vector<int>& fields) {
  return coverage_of(result.field_contribution, fields);
}

HardeningReport evaluate_hardening(const mc::SsfEvaluator& evaluator,
                                   const soc::SocNetlist& soc,
                                   const mc::SsfResult& result,
                                   const std::vector<int>& protected_bits,
                                   const HardeningOptions& options, Rng& rng) {
  FAV_ENSURE(options.resilience_factor >= 1.0);
  FAV_ENSURE(options.area_factor >= 1.0);
  FAV_ENSURE_MSG(!result.records.empty(),
                "hardening needs per-sample records (EvaluatorConfig::"
                "keep_records)");
  const RegisterMap& map = Machine::reg_map();
  const std::unordered_set<int> hardened(protected_bits.begin(),
                                         protected_bits.end());

  HardeningReport report;
  report.protected_bits = protected_bits;
  report.total_register_bits = static_cast<std::size_t>(map.total_bits());
  report.base_ssf = result.ssf();

  // Unbiased re-evaluation: a flip in a hardened cell survives with
  // probability 1/resilience; outcomes are re-decided on the filtered sets.
  const double survive_p = 1.0 / options.resilience_factor;
  RunningStats stats;
  for (const mc::SampleRecord& rec : result.records) {
    FAV_ENSURE_MSG(rec.sample.impact_cycles <= 1,
                   "hardening re-decides a sample with one flip-set overlay, "
                   "not the "
                       << rec.sample.impact_cycles
                       << " per-cycle strikes the engine evaluated");
    std::vector<int> kept;
    kept.reserve(rec.flipped_bits.size());
    bool changed = false;
    for (const int bit : rec.flipped_bits) {
      if (hardened.count(bit) > 0 && !rng.bernoulli(survive_p)) {
        changed = true;
        continue;
      }
      kept.push_back(bit);
    }
    if (!changed) {
      stats.add(rec.contribution);
      continue;
    }
    const bool success = evaluator.outcome_for_flips(rec.te, kept);
    stats.add(success ? rec.sample.weight : 0.0);
  }
  report.hardened_ssf = stats.mean();

  // Area model over the elaborated netlist.
  const netlist::Netlist& nl = soc.netlist();
  const double gate_area =
      options.gate_area * static_cast<double>(nl.gate_count());
  const double dff_area =
      options.dff_area * static_cast<double>(nl.dffs().size());
  const double added = static_cast<double>(protected_bits.size()) *
                       options.dff_area * (options.area_factor - 1.0);
  report.area_overhead = added / (gate_area + dff_area);
  return report;
}

}  // namespace fav::core
