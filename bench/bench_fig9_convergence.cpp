// Reproduces paper Fig. 9: convergence of the three sampling strategies —
// random (plain f_{T,P}), fanin-cone restricted, and the full
// pre-characterization-driven importance sampling with analytical handling
// of memory-type registers ("our" mixed strategy).
//
// Paper numbers: sample variance 0.0261 (random) / 0.0210 (fanin cone) /
// 9.70e-5 (importance) => >2500x variance reduction. Absolute values differ
// on our substrate; the shape to match is the ordering and the
// orders-of-magnitude gap between the importance strategy and the rest.
#include "bench_util.h"

using namespace fav;

int main() {
  bench::banner("Fig. 9 — convergence of sampling strategies");

  core::FaultAttackEvaluator fw(soc::make_illegal_write_benchmark());
  const auto attack = fw.subblock_attack_model(1.5, 50);
  constexpr std::size_t kSamples = 30000;

  auto random = fw.make_random_sampler(attack);
  auto cone = fw.make_cone_sampler(attack);
  auto importance = fw.make_importance_sampler(attack);

  struct Row {
    const char* name;
    mc::SsfResult result;
  };
  std::vector<Row> rows;
  for (auto* sampler : {random.get(), cone.get(), importance.get()}) {
    Rng rng(20170618);  // same seed for every strategy
    rows.push_back({sampler->name().c_str(),
                    fw.evaluator().run(*sampler, rng, kSamples)});
  }

  bench::section("(a) convergence traces (running SSF estimate)");
  std::printf("%-8s %14s %14s %14s\n", "samples", rows[0].name, rows[1].name,
              rows[2].name);
  const std::size_t points = rows[0].result.trace.size();
  for (std::size_t i = 29; i < points; i += 30) {
    std::printf("%-8zu %14.5f %14.5f %14.5f\n",
                (i + 1) * mc::kTraceStride,
                rows[0].result.trace[i], rows[1].result.trace[i],
                rows[2].result.trace[i]);
  }

  bench::section("(b) detailed statistics");
  std::printf("%-12s %8s %10s %14s %10s\n", "strategy", "succ", "SSF",
              "variance", "speedup");
  const double var_random = rows[0].result.sample_variance();
  for (const Row& row : rows) {
    const double var = row.result.sample_variance();
    std::printf("%-12s %8zu %10.5f %14.3e %9.0fx\n", row.name,
                row.result.successes, row.result.ssf(), var,
                var > 0 ? var_random / var : 0.0);
  }
  std::printf(
      "\npaper: random 0.0261 / fanin-cone 0.0210 / importance 9.70e-5\n"
      "(~2500x convergence-rate gain); expect the same strategy ordering\n"
      "with a one-to-two order-of-magnitude variance gap here.\n");

  bench::section("outcome-path mix per strategy");
  std::printf("%-12s %10s %12s %10s\n", "strategy", "masked", "analytical",
              "rtl");
  for (const Row& row : rows) {
    std::printf("%-12s %10zu %12zu %10zu\n", row.name, row.result.masked,
                row.result.analytical, row.result.rtl);
  }
  return 0;
}
