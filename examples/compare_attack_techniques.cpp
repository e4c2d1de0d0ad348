// Comparing attack techniques and attacker capabilities.
//
// The holistic fault model (paper Section 3.2) encodes a technique's
// temporal accuracy (range of T) and parameter variation (spread of P).
// This example quantifies how SSF changes across attacker profiles, from a
// crude wide-spread disturbance to a precisely aimed probe — the designer's
// view of "which attackers do I need to worry about".
#include <cstdio>
#include <vector>

#include "core/framework.h"

using namespace fav;

namespace {

struct Profile {
  const char* name;
  int t_range;    // temporal accuracy: width of the timing window
  double radius;  // spot size
  bool aimed;     // spatially aimed at the security block vs whole chip
};

}  // namespace

int main() {
  core::FaultAttackEvaluator framework(soc::make_illegal_write_benchmark());

  const std::vector<Profile> profiles = {
      {"wide/blind   (cheap EM pulse)", 50, 3.0, false},
      {"wide/aimed   (focused EM)", 50, 3.0, true},
      {"tight/aimed  (laser, rough)", 10, 1.5, true},
      {"sharp/aimed  (laser, precise)", 3, 0.8, true},
  };

  std::printf("%-34s %10s %10s %8s\n", "attacker profile", "SSF", "stderr",
              "succ");
  for (const Profile& p : profiles) {
    const faultsim::AttackModel attack =
        p.aimed ? framework.subblock_attack_model(p.radius, p.t_range)
                : framework.chip_attack_model(p.radius, p.t_range);
    Rng rng(11);
    auto sampler = framework.make_importance_sampler(attack);
    const mc::SsfResult res = framework.evaluator().run(*sampler, rng, 2000);
    std::printf("%-34s %10.5f %10.5f %7zu\n", p.name, res.ssf(),
                res.stats.standard_error(), res.successes);
  }

  // A different *technique*, not just a different capability: the same
  // engine evaluates a clock-glitch attacker when the framework is
  // configured for it — the estimator, threads, and reporting are shared.
  core::FrameworkConfig glitch_cfg;
  glitch_cfg.technique = "clock-glitch";
  core::FaultAttackEvaluator glitch_framework(
      soc::make_illegal_write_benchmark(), glitch_cfg);
  const faultsim::GlitchAttackModel model =
      glitch_framework.glitch_attack_model(50);
  Rng glitch_rng(11);
  auto glitch_sampler = glitch_framework.make_glitch_sampler(model);
  const mc::SsfResult glitch_res =
      glitch_framework.evaluator().run(*glitch_sampler, glitch_rng, 2000);
  std::printf("%-34s %10.5f %10.5f %7zu\n", "clock glitch (same window)",
              glitch_res.ssf(), glitch_res.stats.standard_error(),
              glitch_res.successes);

  std::printf(
      "\nA sharper technique concentrates f_{T,P} on the vulnerable\n"
      "subspace: SSF rises accordingly (paper Fig. 11), and switching the\n"
      "technique entirely changes which parts of the design are exposed.\n");
  return 0;
}
