// Evaluating a different attack technique: clock glitching.
//
// The holistic model (paper Section 3.2) is technique-agnostic — here the
// attack parameters are the glitch cycle and depth rather than a radiation
// spot, and the same cross-level engine evaluates both (the framework is
// simply configured with technique = "clock-glitch"). Because a glitch's
// effect is deterministic per (cycle, depth), the SSF over the whole attack
// space can also be computed *exactly* by enumeration, and the per-depth
// profile tells the designer which clock margin the system can tolerate.
#include <cstdio>

#include "core/framework.h"

using namespace fav;

int main() {
  core::FrameworkConfig cfg;
  cfg.technique = "clock-glitch";
  core::FaultAttackEvaluator framework(soc::make_illegal_write_benchmark(),
                                       cfg);
  const faultsim::GlitchSimulator& glitch = framework.glitch_simulator();
  // A second technique instance whose fault space each sweep below rebinds,
  // run by an engine with the framework's configuration.
  faultsim::GlitchTechnique technique(glitch,
                                      faultsim::TechniqueKind::kClockGlitch);
  const mc::SsfEvaluator engine(framework.soc(), technique,
                                framework.benchmark(), framework.golden(),
                                &framework.characterization(),
                                framework.evaluator().config());

  std::printf("nominal clock period: %.1f, slowest D arrival: %.1f\n\n",
              glitch.timing().clock_period(), glitch.critical_d_arrival());

  // Exact SSF per glitch depth over the full 50-cycle attack window: each
  // (t, depth) grid is bound as the technique's fault space and swept by the
  // unified pipeline, so it parallelizes and reports like any Monte Carlo
  // campaign.
  std::printf("%-10s %10s %14s\n", "depth", "SSF", "succ/space");
  for (const double depth : {0.95, 0.85, 0.7, 0.55, 0.4, 0.25}) {
    faultsim::GlitchAttackModel model(faultsim::TechniqueKind::kClockGlitch);
    model.t_min = 1;
    model.t_max = 50;
    model.levels = {depth};
    model.check_valid(engine.target_cycle());
    technique.bind_space(model);
    const mc::SsfResult exact = engine.run_exhaustive();
    std::printf("%-10.2f %10.4f %10zu/%zu\n", depth, exact.ssf(),
                exact.successes, exact.stats.count());
  }

  // The same holistic model estimated by Monte Carlo through the same
  // engine: the uniform glitch sampler draws (t, depth), and the estimate
  // converges to the enumeration above.
  const faultsim::GlitchAttackModel model = framework.glitch_attack_model();
  Rng rng(3);
  auto sampler = framework.make_glitch_sampler(model);
  const mc::SsfResult estimate = framework.evaluator().run(*sampler, rng, 2000);
  std::printf("\nMC estimate over the default depth grid: %.5f (+- %.5f)\n",
              estimate.ssf(), estimate.stats.standard_error());

  std::printf(
      "\nWhy the glitch SSF is ~0 here while radiation succeeds: a timing\n"
      "glitch makes registers HOLD their previous value, and MCU16's MPU\n"
      "configuration registers recirculate (D = Q) outside configuration\n"
      "writes — holding them is harmless. Radiation flips stored bits\n"
      "directly, which is exactly what corrupts a write-once configuration.\n"
      "Different techniques -> very different vulnerability, which is the\n"
      "point of the paper's holistic technique model.\n");
  return 0;
}
