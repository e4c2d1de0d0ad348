// Importance-sampling distribution built from the pre-characterization
// (paper Section 4, final recipe):
//
//   g_{T,P} = g_T * g_{P|T}
//   g_T(t=i)        ∝ w_i = Σ_{c ∈ Ω_i} w(i, c)
//   g_{P|T}(c|t=i)  ∝ w(i, c),   radius ~ Unif (as in f)
//
// with the per-candidate weight
//   w(i, c) = 1 + α · max_{g ∈ S(c) ∩ cone_i} Corr_i(g, rs) δ(L(g) ≥ β i)
//               + γ · mem_hits(c) · δ(i ≥ 1)
// where S(c) is the radiated spot around center c (placement query with the
// attack's maximum radius) and mem_hits(c) counts memory-type cone registers
// inside S(c).
//
// Differences from the paper's formula, and why:
//  * the weight is per *spot*, not per gate: a radiated region with r > 0
//    strikes every cell it covers, so the support must include any center
//    whose spot intersects the cones — otherwise the estimator is biased
//    (f·e > 0 where g = 0). The α term aggregates over the covered cone
//    cells with max().
//  * the γ term implements the paper's mixed strategy ("analytical analysis
//    for memory-type registers") in sampled form: memory-type registers
//    barely switch, so the correlation term cannot see them, yet spots that
//    upset them dominate SSF (their errors persist until the target cycle
//    and are resolved analytically). Boosting their neighbourhoods — and
//    correcting through the importance weight — moves sampling mass onto
//    the dominant subspace, which is where the variance reduction comes
//    from. δ(i ≥ 1) excludes t = 0: an error latched at the end of the
//    target cycle is too late to influence it.
#pragma once

#include <vector>

#include "faultsim/attack_model.h"
#include "layout/placement.h"
#include "netlist/cones.h"
#include "precharac/characterize.h"
#include "precharac/signatures.h"
#include "soc/soc_netlist.h"
#include "util/discrete_dist.h"

namespace fav::precharac {

struct SamplingParams {
  double alpha = 4.0;          // correlation emphasis
  double beta = 1.0;           // lifetime requirement per unrolled cycle
  double memory_boost = 1.0;   // γ: per memory-type register covered by a spot
  /// Optional per-flat-bit potency scores from the analytical evaluator:
  /// 1.0 when a single-bit corruption of that (memory-type) register
  /// analytically enables the attack, a smaller positive value (e.g. 0.3)
  /// when the bit belongs to a register group whose wholesale corruption
  /// does (a "garbage-latch" target). Spots covering potent bits receive
  /// potency_boost * score — this is the fully "mixed" strategy where the
  /// analytical pass also steers the sampler. Empty = no potency info.
  std::vector<double> memory_bit_potency;
  double potency_boost = 2.0;
  /// Optional per-candidate-center weight boost, indexed by NodeId. The
  /// framework fills it by *enumerating* each candidate spot's direct
  /// register upsets and evaluating their outcome analytically (cheap and
  /// deterministic): spots whose direct flips provably enable the attack get
  /// direct_hit_boost. This is the strongest form of the paper's mixed
  /// strategy — the deterministic memory-type subspace is resolved by
  /// analysis and the sampler merely visits it. Empty = disabled.
  std::vector<double> center_boost;
  /// Weight added per spot-covered combinational gate whose same-cycle
  /// fanout reaches a potent register's D input: transients seeded there can
  /// latch an attack-enabling value even though the spot covers no register
  /// cell (the garbage-latch mechanism through the config-write decode).
  double transit_boost = 10.0;
  /// Defensive mixture weight (Hesterberg): the actual sampling distribution
  /// is (1-ε)·g_weighted + ε·f. The ε·f floor bounds every importance weight
  /// by 1/ε, preventing the heavy-tailed estimates that pure concentration
  /// produces when a rare success lands outside the boosted region.
  double defensive_mix = 0.1;
};

/// The α term's per-gate factor for every fanin frame the sampler reads,
/// frames 0..min(max_frame, fanin depth), one entry per (node, frame):
///   -1              g is not a member of cone frame f,
///    0              g is a member but fails the lifetime test L(g) >= β·f,
///   Corr_f(g, rs)   otherwise, equal to SignatureTrace::correlation.
/// `lifetime_l` holds L(g) per node id and sets the node count. Laid out
/// node-major, so a node's frames are one contiguous column. ss(rs) is
/// shifted once per frame and |ss(g)| counted once per node.
class GateTermTable {
 public:
  GateTermTable(const netlist::UnrolledCone& cone,
                const SignatureTrace& signatures,
                const std::vector<double>& lifetime_l, double beta,
                int max_frame);

  /// Frames per column.
  int rows() const { return rows_; }
  std::size_t node_count() const { return node_count_; }
  /// Entry for (frame, node); frame in [0, rows()), node < node_count().
  double term(int frame, netlist::NodeId node) const;
  /// The rows() entries of `node`, frame 0 first.
  const double* column(netlist::NodeId node) const {
    return terms_.data() + static_cast<std::size_t>(node) *
                               static_cast<std::size_t>(rows_);
  }

 private:
  std::size_t node_count_ = 0;
  int rows_ = 0;
  std::vector<double> terms_;  // node-major: (g, f) at g * rows_ + f
};

class SamplingModel {
 public:
  SamplingModel(const soc::SocNetlist& soc, const layout::Placement& placement,
                const netlist::UnrolledCone& cone,
                const SignatureTrace& signatures,
                const RegisterCharacterization& characterization,
                const faultsim::AttackModel& attack,
                const SamplingParams& params = {});

  const faultsim::AttackModel& attack() const { return *attack_; }
  const SamplingParams& params() const { return params_; }

  /// Error lifetime L(g) assigned to a cell: a register's own measured
  /// lifetime, or for a combinational gate the maximum over registers in
  /// its same-cycle fanout cone.
  double lifetime_l(netlist::NodeId node) const;

  /// Memory-type boost score of the spot at `center`: one point per
  /// memory-type cone register covered, plus potency_boost * potency score
  /// per potent bit.
  double memory_score(netlist::NodeId center) const;
  /// Spot-covered gates with a combinational path into a potent register's
  /// D input (garbage-latch transit gates).
  int transit_count(netlist::NodeId center) const;

  /// The (unnormalized) sampling weight of candidate `center` in frame
  /// `frame`; 0 if the spot at `center` cannot influence the cones there.
  double center_weight(int frame, netlist::NodeId center) const;

  /// Marginal distribution g_T of the *weighted component* over
  /// t = t_min .. t_max (before defensive mixing).
  const DiscreteDistribution& g_t() const { return g_t_; }

  /// Joint pmf of the full sampling distribution (1-ε)·g_weighted + ε·f over
  /// (t, center); radius excluded — it is uniform under both f and g and
  /// cancels from every weight.
  double g_pmf(int t, netlist::NodeId center) const;

  /// Draws a fault sample from g_{T,P} with its importance weight f/g.
  faultsim::FaultSample sample(Rng& rng) const;

 private:
  int frame_index(int t) const;  // position of t within [t_min, t_max]

  const soc::SocNetlist* soc_;
  const faultsim::AttackModel* attack_;
  SamplingParams params_;
  std::vector<double> lifetime_l_;  // per NodeId
  std::vector<double> mem_score_;   // per NodeId (candidates only)
  std::vector<int> transit_count_;  // per NodeId (candidates only)

  struct Frame {
    std::vector<netlist::NodeId> centers;  // candidates with positive weight
    std::vector<double> weights;           // aligned with centers
    double total_weight = 0;
    DiscreteDistribution conditional;      // over centers (empty if none)
    std::vector<int> center_index;         // NodeId -> index (-1 if absent)
  };
  std::vector<Frame> frames_;  // one per t in [t_min, t_max]
  DiscreteDistribution g_t_;
};

}  // namespace fav::precharac
