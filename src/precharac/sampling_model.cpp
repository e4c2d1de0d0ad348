#include "precharac/sampling_model.h"

#include <algorithm>
#include <numeric>

namespace fav::precharac {

using faultsim::FaultSample;
using netlist::CellType;
using netlist::NodeId;

SamplingModel::SamplingModel(const soc::SocNetlist& soc,
                             const layout::Placement& placement,
                             const netlist::UnrolledCone& cone,
                             const SignatureTrace& signatures,
                             const RegisterCharacterization& characterization,
                             const faultsim::AttackModel& attack,
                             const SamplingParams& params)
    : soc_(&soc), attack_(&attack), params_(params) {
  attack.check_valid();
  FAV_ENSURE(params.alpha >= 0);
  FAV_ENSURE(params.beta >= 0);
  FAV_ENSURE(params.memory_boost >= 0);
  FAV_ENSURE(params.defensive_mix >= 0.0 && params.defensive_mix <= 1.0);
  FAV_ENSURE(params.transit_boost >= 0);
  const netlist::Netlist& nl = soc.netlist();

  // --- L(g): reverse-topological max over same-cycle fanout registers ----
  lifetime_l_.assign(nl.node_count(), 0.0);
  for (const NodeId dff : nl.dffs()) {
    const int bit = soc.flat_bit_for_dff(dff);
    lifetime_l_[dff] = characterization.lifetime(bit);
  }
  const auto& topo = nl.topo_order();
  const auto& fanouts = nl.fanouts();
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    double l = 0.0;
    for (const auto& e : fanouts[*it]) {
      l = std::max(l, lifetime_l_[e.consumer]);
    }
    lifetime_l_[*it] = l;
  }

  // --- memory-type cone registers ---------------------------------------
  // Per-DFF boost score: 1 for a plain memory-type cone register, plus the
  // potency bonus when the analytical evaluator marked its bit as
  // attack-enabling.
  std::vector<double> mem_score_dff(nl.node_count(), 0.0);
  if (!params.memory_bit_potency.empty()) {
    FAV_ENSURE_MSG(params.memory_bit_potency.size() ==
                      static_cast<std::size_t>(
                          soc::SocNetlist::reg_map().total_bits()),
                  "memory_bit_potency size mismatch");
  }
  for (const NodeId dff : cone.all_fanin_registers()) {
    const int bit = soc.flat_bit_for_dff(dff);
    if (bit < 0) continue;
    double score = characterization.is_memory_type(bit) ? 1.0 : 0.0;
    if (!params.memory_bit_potency.empty()) {
      // Potent bits score regardless of their empirical class: potency means
      // the analytical evaluator proved the flip attack-enabling.
      score += params.potency_boost *
               params.memory_bit_potency[static_cast<std::size_t>(bit)];
    }
    if (score > 0.0) mem_score_dff[dff] = score;
  }

  // --- transit reach: gates that can latch errors into potent registers ---
  // reach[g] = a combinational path exists from g to the D input of a
  // register whose single-bit corruption analytically enables the attack.
  std::vector<char> potent_dff(nl.node_count(), 0);
  if (!params.memory_bit_potency.empty()) {
    for (const NodeId dff : nl.dffs()) {
      const int bit = soc.flat_bit_for_dff(dff);
      if (bit >= 0 &&
          params.memory_bit_potency[static_cast<std::size_t>(bit)] > 0.0) {
        potent_dff[dff] = 1;
      }
    }
  }
  std::vector<char> potent_reach(nl.node_count(), 0);
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    char reach = 0;
    for (const auto& e : fanouts[*it]) {
      reach |= nl.is_dff(e.consumer) ? potent_dff[e.consumer]
                                     : potent_reach[e.consumer];
    }
    potent_reach[*it] = reach;
  }

  // --- per-candidate spot summaries --------------------------------------
  // Spot i (of candidate_centers[i]) covers spot_cells[spot_begin[i] ..
  // spot_begin[i + 1]). Each cell points at its gate-term column and says
  // which frame it reads in weighted frame t (see the frame alignment
  // below): a gate reads frame t, a DFF frame t - 1.
  const GateTermTable table(cone, signatures, lifetime_l_, params.beta,
                            attack.t_max);
  struct SpotCell {
    const double* column;  // table.column(g)
    int lag;               // 1 for a DFF, 0 for a gate
  };
  const double max_radius =
      *std::max_element(attack.radii.begin(), attack.radii.end());
  const std::size_t n = nl.node_count();
  mem_score_.assign(n, 0.0);
  transit_count_.assign(n, 0);
  std::vector<std::size_t> spot_begin{0};
  std::vector<SpotCell> spot_cells;
  std::vector<NodeId> spot;  // query buffer reused across centers
  for (const NodeId c : attack.candidate_centers) {
    FAV_ENSURE_MSG(placement.is_placed(c),
                  "candidate center " << c << " is not a placed cell");
    placement.nodes_within(c, max_radius, spot);
    double score = 0.0;
    int transit = 0;
    for (const NodeId g : spot) {
      score += mem_score_dff[g];
      if (potent_reach[g] != 0 && nl.is_comb_gate(g)) ++transit;
      spot_cells.push_back({table.column(g), nl.is_dff(g) ? 1 : 0});
    }
    spot_begin.push_back(spot_cells.size());
    mem_score_[c] = score;
    transit_count_[c] = transit;
  }

  // --- per-frame weights -------------------------------------------------
  // Frame alignment: a transient generated at a gate during cycle Te = Tt-t
  // corresponds to unrolled frame t (the gate copy feeding the registers
  // whose frame-(t-1) value reaches rs); a *direct* DFF upset corrupts the
  // register's value starting at frame t-1.
  //
  // For one center, reach[t - t_min] is the largest gate term its spot's
  // cells read in weighted frame t: -1 when none of them is a cone member
  // there, else the α term's correlation factor. Frames past the cone's
  // fanin depth have no column entries, stay at -1, and so get only the
  // memory, transit and direct terms. Centers run in candidate order, so
  // every frame lists (and sums) its centers in that order.
  const auto t_count = static_cast<std::size_t>(attack.t_count());
  frames_.resize(t_count);
  for (Frame& fr : frames_) fr.center_index.assign(n, -1);
  std::vector<double> reach(t_count);
  for (std::size_t i = 0; i < attack.candidate_centers.size(); ++i) {
    const NodeId c = attack.candidate_centers[i];
    std::fill(reach.begin(), reach.end(), -1.0);
    for (std::size_t k = spot_begin[i]; k < spot_begin[i + 1]; ++k) {
      const SpotCell& cell = spot_cells[k];
      const int hi = std::min(attack.t_max, table.rows() - 1 + cell.lag);
      for (int t = std::max(attack.t_min, cell.lag); t <= hi; ++t) {
        double& best = reach[static_cast<std::size_t>(t - attack.t_min)];
        best = std::max(best, cell.column[t - cell.lag]);
      }
    }
    for (int t = attack.t_min; t <= attack.t_max; ++t) {
      const auto ti = static_cast<std::size_t>(t - attack.t_min);
      const bool touches_cone = reach[ti] >= 0.0;
      const double corr_term = touches_cone ? reach[ti] : 0.0;
      const double mem = t >= 1 ? mem_score_[c] : 0.0;
      const double transit =
          t >= 1 ? static_cast<double>(transit_count_[c]) : 0.0;
      double direct = 0.0;
      if (t >= 1 && c < params.center_boost.size()) {
        direct = params.center_boost[c];
      }
      if (!touches_cone && mem == 0.0 && transit == 0.0 && direct == 0.0) {
        continue;
      }
      const double w = 1.0 + params.alpha * corr_term +
                       params.memory_boost * mem +
                       params.transit_boost * transit + direct;
      Frame& fr = frames_[ti];
      fr.center_index[c] = static_cast<int>(fr.centers.size());
      fr.centers.push_back(c);
      fr.weights.push_back(w);
      fr.total_weight += w;
    }
  }
  std::vector<double> omegas;
  for (Frame& fr : frames_) {
    if (!fr.centers.empty()) {
      fr.conditional = DiscreteDistribution(fr.weights);
    }
    omegas.push_back(fr.total_weight);
  }
  const double total = std::accumulate(omegas.begin(), omegas.end(), 0.0);
  FAV_ENSURE_MSG(total > 0.0,
                "no candidate spot touches the responding signal's cones — "
                "importance sampling has empty support");
  g_t_ = DiscreteDistribution(omegas);
}

GateTermTable::GateTermTable(const netlist::UnrolledCone& cone,
                             const SignatureTrace& signatures,
                             const std::vector<double>& lifetime_l,
                             double beta, int max_frame)
    : node_count_(lifetime_l.size()),
      rows_(std::clamp(max_frame + 1, 0,
                       static_cast<int>(cone.fanin_frames().size()))) {
  const auto rows = static_cast<std::size_t>(rows_);
  terms_.assign(node_count_ * rows, -1.0);
  // Corr_f(g, rs) = |ss(g) & (ss(rs) << f)| / |ss(g)|, as in
  // SignatureTrace::correlation, with ss(rs) shifted once per frame.
  const BitVector& sr = signatures.signature(cone.responding_signal());
  std::vector<BitVector> shifted;
  std::vector<const BitVector*> members;
  for (int f = 0; f < rows_; ++f) {
    shifted.push_back(sr.shifted_down(static_cast<std::size_t>(f)));
    members.push_back(&cone.members(f));
  }
  for (NodeId g = 0; g < node_count_; ++g) {
    const BitVector& sg = signatures.signature(g);
    const std::size_t norm = sg.count();
    double* column = terms_.data() + g * rows;
    for (int f = 0; f < rows_; ++f) {
      const auto fi = static_cast<std::size_t>(f);
      if (!members[fi]->test(g)) continue;
      column[fi] = !(lifetime_l[g] >= beta * f) || norm == 0
                       ? 0.0
                       : static_cast<double>(sg.and_count(shifted[fi])) /
                             static_cast<double>(norm);
    }
  }
}

double GateTermTable::term(int frame, NodeId node) const {
  FAV_ENSURE(frame >= 0 && frame < rows_ && node < node_count_);
  return column(node)[frame];
}

double SamplingModel::lifetime_l(NodeId node) const {
  FAV_ENSURE(node < lifetime_l_.size());
  return lifetime_l_[node];
}

double SamplingModel::memory_score(NodeId center) const {
  FAV_ENSURE(center < mem_score_.size());
  return mem_score_[center];
}

int SamplingModel::transit_count(NodeId center) const {
  FAV_ENSURE(center < transit_count_.size());
  return transit_count_[center];
}

int SamplingModel::frame_index(int t) const {
  FAV_ENSURE_MSG(t >= attack_->t_min && t <= attack_->t_max,
                "t out of attack range");
  return t - attack_->t_min;
}

double SamplingModel::center_weight(int frame, NodeId center) const {
  if (frame < attack_->t_min || frame > attack_->t_max) return 0.0;
  const Frame& fr = frames_[static_cast<std::size_t>(frame_index(frame))];
  if (center >= fr.center_index.size()) return 0.0;
  const int idx = fr.center_index[center];
  return idx < 0 ? 0.0 : fr.weights[static_cast<std::size_t>(idx)];
}

double SamplingModel::g_pmf(int t, NodeId center) const {
  const double f_tc =
      1.0 / (static_cast<double>(attack_->t_count()) *
             static_cast<double>(attack_->candidate_centers.size()));
  const double eps = params_.defensive_mix;

  double weighted = 0.0;
  const Frame& fr = frames_[static_cast<std::size_t>(frame_index(t))];
  if (!fr.centers.empty() && center < fr.center_index.size()) {
    const int idx = fr.center_index[center];
    if (idx >= 0) {
      weighted = g_t_.pmf(static_cast<std::size_t>(frame_index(t))) *
                 fr.conditional.pmf(static_cast<std::size_t>(idx));
    }
  }
  return (1.0 - eps) * weighted + eps * f_tc;
}

FaultSample SamplingModel::sample(Rng& rng) const {
  FaultSample s;
  if (rng.bernoulli(params_.defensive_mix)) {
    // Defensive component: plain draw from f_{T,P}.
    s.t = static_cast<int>(rng.uniform_int(attack_->t_min, attack_->t_max));
    s.center =
        attack_->candidate_centers[rng.uniform_below(
            attack_->candidate_centers.size())];
  } else {
    const std::size_t ti = g_t_.sample(rng);
    s.t = attack_->t_min + static_cast<int>(ti);
    const Frame& fr = frames_[ti];
    FAV_ENSURE_MSG(!fr.centers.empty(),
                  "sampled a frame with empty support (zero weight expected)");
    s.center = fr.centers[fr.conditional.sample(rng)];
  }
  s.radius = attack_->radii[rng.uniform_below(attack_->radii.size())];
  s.strike_frac = attack_->draw_strike_frac(rng);
  s.impact_cycles = attack_->impact_cycles;
  // Importance weight f/g over the mixture; the uniform radius and
  // strike_frac factors cancel. Bounded by 1/defensive_mix.
  const double f_tc =
      1.0 / (static_cast<double>(attack_->t_count()) *
             static_cast<double>(attack_->candidate_centers.size()));
  s.weight = f_tc / g_pmf(s.t, s.center);
  return s;
}

}  // namespace fav::precharac
