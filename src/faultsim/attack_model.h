// Holistic probabilistic fault model f_{T,P} (paper Section 3.2).
//
// The paper's model is technique-parameterized: an attack outcome is a joint
// sample of the timing distance t and a technique parameter vector p — for
// radiation p = [g, r] (spot center, radius), for a clock glitch p = [d]
// (glitch depth). FaultSample is the generalized carrier: it holds t, the
// importance weight, and the union of per-technique parameter fields, tagged
// by TechniqueKind so samples, journal frames, and SampleRecords flow through
// the evaluation pipeline unchanged regardless of technique (see
// faultsim/technique.h for the AttackTechnique interface that interprets
// them).
//
// Radiation parameters:
//   center      — radiation spot center cell g,
//   radius      — radiated-region radius r,
//   strike_frac — intra-cycle hit instant as a fraction of the clock period
//                 (sub-cycle technique variation; uniform under every
//                 strategy, so it cancels from importance weights).
// Clock-glitch parameters:
//   depth       — shortened period as a fraction of the nominal period.
// Following the paper, T and P are uniform over ranges centered at the
// attacker's intended target; the ranges encode the temporal accuracy and
// parameter variation of the concrete technique (Fig. 11 sweeps them).
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.h"
#include "util/check.h"
#include "util/rng.h"

namespace fav::faultsim {

/// Technique family a FaultSample's parameters belong to. Values are stable
/// (journaled on disk); append new techniques, never renumber.
enum class TechniqueKind : std::uint8_t {
  kRadiation = 0,
  kClockGlitch = 1,
  kVoltageGlitch = 2,
};

/// Stable lowercase name ("radiation" / "clock-glitch" / "voltage-glitch")
/// for configs, the CLI and run reports.
const char* technique_kind_name(TechniqueKind kind);

struct FaultSample {
  TechniqueKind technique = TechniqueKind::kRadiation;
  int t = 0;                      // timing distance (cycles before Tt)
  // --- radiation parameters p = [g, r] ---------------------------------
  netlist::NodeId center = 0;     // radiation spot center
  double radius = 0;              // radiated-region radius
  double strike_frac = 0;         // in [0, 1)
  // --- clock-glitch / voltage-glitch parameters p = [d] -----------------
  // Clock glitch: shortened period as a fraction of the nominal period.
  // Voltage glitch: supply droop severity (gate delays scale by 1/(1-d)).
  // Sharing the field keeps journal frames and the wire protocol stable.
  double depth = 0;               // in (0, 1)
  // ---------------------------------------------------------------------
  int impact_cycles = 1;          // consecutive cycles hit by this injection
  double weight = 1.0;            // importance weight f/g for the estimator
};

inline const char* technique_kind_name(TechniqueKind kind) {
  switch (kind) {
    case TechniqueKind::kRadiation: return "radiation";
    case TechniqueKind::kClockGlitch: return "clock-glitch";
    case TechniqueKind::kVoltageGlitch: return "voltage-glitch";
  }
  return "unknown";
}

struct AttackModel {
  int t_min = 0;
  int t_max = 49;  // inclusive; 50-cycle window as in the paper's Section 6
  /// Support of the spatial parameter (the "sub-block" the attacker aims at).
  std::vector<netlist::NodeId> candidate_centers;
  /// Discrete radius choices, uniform (Unif(r) in the paper's g_{P|T}).
  std::vector<double> radii = {1.5};
  /// Optional discretization of the intra-cycle strike instant. Empty keeps
  /// the paper's continuous Unif[0, 1) draw; non-empty restricts every
  /// sampler to this grid, which makes the radiation fault space finite and
  /// exhaustively enumerable (technique.h). Uniform either way, so the
  /// strike_frac factor still cancels from importance weights.
  std::vector<double> strike_fracs;
  /// Consecutive cycles impacted by one injection (paper Section 3.2: the
  /// default assumption is a single cycle, but the framework "can easily
  /// incorporate multi-cycle impact" — this is that hook; the same spot
  /// strikes cycles Te .. Te+impact_cycles-1).
  int impact_cycles = 1;

  int t_count() const { return t_max - t_min + 1; }

  void check_valid() const {
    FAV_ENSURE_MSG(t_min >= 0 && t_max >= t_min, "bad timing range");
    FAV_ENSURE_MSG(!candidate_centers.empty(), "no candidate centers");
    FAV_ENSURE_MSG(!radii.empty(), "no radii");
    for (const double f : strike_fracs) {
      FAV_ENSURE_MSG(f >= 0.0 && f < 1.0, "strike_frac must be in [0, 1)");
    }
    FAV_ENSURE_MSG(impact_cycles >= 1, "impact_cycles must be >= 1");
  }

  /// One draw of the strike instant: the configured grid, or Unif[0, 1).
  double draw_strike_frac(Rng& rng) const {
    if (strike_fracs.empty()) return rng.uniform01();
    return strike_fracs[rng.uniform_below(strike_fracs.size())];
  }

  /// Draws from f_{T,P} (this *is* the random-sampling baseline).
  FaultSample sample(Rng& rng) const {
    check_valid();
    FaultSample s;
    s.t = static_cast<int>(rng.uniform_int(t_min, t_max));
    s.center = candidate_centers[rng.uniform_below(candidate_centers.size())];
    s.radius = radii[rng.uniform_below(radii.size())];
    s.strike_frac = draw_strike_frac(rng);
    s.impact_cycles = impact_cycles;
    s.weight = 1.0;
    return s;
  }
};

}  // namespace fav::faultsim
