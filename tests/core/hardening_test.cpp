#include "core/hardening.h"

#include <gtest/gtest.h>

#include "core/framework.h"
#include "util/check.h"

namespace fav::core {
namespace {

FaultAttackEvaluator& fw() {
  static FaultAttackEvaluator instance(soc::make_illegal_write_benchmark());
  return instance;
}

const mc::SsfResult& baseline() {
  static const mc::SsfResult res = [] {
    const auto attack = fw().subblock_attack_model(1.5, 50);
    auto sampler = fw().make_importance_sampler(attack);
    Rng rng(2026);
    return fw().evaluator().run(*sampler, rng, 2500);
  }();
  return res;
}

TEST(Hardening, CriticalBitsAreASmallMinority) {
  ASSERT_GT(baseline().successes, 0u);
  const auto critical = select_critical_bits(baseline(), 0.95);
  EXPECT_FALSE(critical.empty());
  EXPECT_GE(attribution_coverage_bits(baseline(), critical), 0.95);
  // The paper's headline shape: a few percent of the registers carry almost
  // all the SSF.
  const auto& map = rtl::Machine::reg_map();
  EXPECT_LT(static_cast<double>(critical.size()),
            0.15 * map.total_bits());
}

TEST(Hardening, FieldSelectionCoversFields) {
  const auto fields = select_critical_fields(baseline(), 0.9);
  EXPECT_FALSE(fields.empty());
  EXPECT_GE(attribution_coverage(baseline(), fields), 0.9);
}

TEST(Hardening, SelectionIsGreedyByContribution) {
  const auto one = select_critical_bits(baseline(), 0.01);
  ASSERT_GE(one.size(), 1u);
  double best = 0;
  for (const auto& [b, c] : baseline().bit_contribution) {
    best = std::max(best, c);
  }
  EXPECT_DOUBLE_EQ(baseline().bit_contribution.at(one[0]), best);
}

TEST(Hardening, InvalidCoverageThrows) {
  EXPECT_THROW(select_critical_bits(baseline(), 0.0), fav::CheckError);
  EXPECT_THROW(select_critical_bits(baseline(), 1.5), fav::CheckError);
}

TEST(Hardening, HardeningReducesSsf) {
  const auto critical = select_critical_bits(baseline(), 0.95);
  Rng rng(99);
  const HardeningReport report = evaluate_hardening(
      fw().evaluator(), fw().soc(), baseline(), critical, {}, rng);
  EXPECT_DOUBLE_EQ(report.base_ssf, baseline().ssf());
  EXPECT_LT(report.hardened_ssf, report.base_ssf);
  EXPECT_GT(report.improvement(), 2.0);  // paper: up to 6.5x
  EXPECT_GT(report.area_overhead, 0.0);
  EXPECT_LT(report.area_overhead, 0.05);  // paper: < 2%
  EXPECT_EQ(report.protected_bits, critical);
  EXPECT_LT(report.protected_register_fraction(), 0.15);
}

TEST(Hardening, InfiniteResilienceKillsProtectedContribution) {
  const auto critical = select_critical_bits(baseline(), 1.0);
  HardeningOptions opts;
  opts.resilience_factor = 1e12;  // flips in protected cells never happen
  Rng rng(123);
  const HardeningReport report = evaluate_hardening(
      fw().evaluator(), fw().soc(), baseline(), critical, opts, rng);
  EXPECT_LT(report.hardened_ssf, 0.25 * report.base_ssf);
}

TEST(Hardening, NoProtectionChangesNothing) {
  Rng rng(7);
  const HardeningReport report = evaluate_hardening(
      fw().evaluator(), fw().soc(), baseline(), {}, {}, rng);
  EXPECT_DOUBLE_EQ(report.hardened_ssf, report.base_ssf);
  EXPECT_EQ(report.area_overhead, 0.0);
  EXPECT_TRUE(report.protected_bits.empty());
}

TEST(Hardening, AreaScalesWithOptions) {
  const auto critical = select_critical_bits(baseline(), 0.95);
  Rng rng(8);
  HardeningOptions cheap;
  cheap.area_factor = 1.5;
  HardeningOptions expensive;
  expensive.area_factor = 5.0;
  const auto a = evaluate_hardening(fw().evaluator(), fw().soc(), baseline(),
                                    critical, cheap, rng);
  const auto b = evaluate_hardening(fw().evaluator(), fw().soc(), baseline(),
                                    critical, expensive, rng);
  EXPECT_LT(a.area_overhead, b.area_overhead);
}

TEST(Hardening, BadOptionsThrow) {
  Rng rng(9);
  HardeningOptions bad;
  bad.resilience_factor = 0.5;
  EXPECT_THROW(evaluate_hardening(fw().evaluator(), fw().soc(), baseline(), {},
                                  bad, rng),
               fav::CheckError);
}

TEST(Hardening, RequiresRecords) {
  mc::SsfResult empty;
  Rng rng(10);
  EXPECT_THROW(evaluate_hardening(fw().evaluator(), fw().soc(), empty, {}, {},
                                  rng),
               fav::CheckError);
}

TEST(Hardening, RejectsMultiCycleRecords) {
  // A changed record is re-decided by one flip-set overlay; a record that
  // struck two cycles would be re-decided under a different fault model.
  mc::SsfResult multi;
  multi.records.resize(1);
  multi.records[0].sample.impact_cycles = 2;
  Rng rng(11);
  EXPECT_THROW(evaluate_hardening(fw().evaluator(), fw().soc(), multi, {}, {},
                                  rng),
               fav::CheckError);
}

TEST(Hardening, BitAttributionSumsMatchFieldAttribution) {
  double bit_total = 0, field_total = 0;
  for (const auto& [b, c] : baseline().bit_contribution) bit_total += c;
  for (const auto& [f, c] : baseline().field_contribution) field_total += c;
  EXPECT_NEAR(bit_total, field_total, 1e-9);
}

}  // namespace
}  // namespace fav::core
