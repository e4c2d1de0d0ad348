#include "scalar_flip_set.h"

#include <algorithm>

#include "util/check.h"

namespace fav::faultsim::oracle {

using netlist::CellType;
using netlist::NodeId;

namespace {

/// True if a wrong value on `pin` of `node` reaches the output, given the
/// golden values of the other pins.
bool sensitized(const netlist::LogicSimulator& sim, NodeId node, int pin) {
  const auto& n = sim.netlist().node(node);
  if (n.type == CellType::kMux) {
    // Pin 0 = select, 1 = a (sel=0), 2 = b (sel=1).
    const bool sel = sim.value(n.fanins[0]);
    if (pin == 0) {
      // A glitching select only matters if the two data inputs differ.
      return sim.value(n.fanins[1]) != sim.value(n.fanins[2]);
    }
    return (pin == 2) == sel;  // the unselected data pin is masked
  }
  for (int j = 0; j < static_cast<int>(n.fanins.size()); ++j) {
    if (j == pin) continue;
    if (netlist::is_controlling_value(n.type, j, sim.value(n.fanins[j]))) {
      return false;  // a controlling side input absorbs the glitch
    }
  }
  return true;
}

}  // namespace

void add_pulse(const InjectionSimulator& inj, std::vector<Pulse>& list,
               Pulse p) {
  if (list.empty()) {  // the common case: nothing to merge with or evict
    list.push_back(p);
    return;
  }
  // Union-merge transitively: absorbing one neighbour can widen p into the
  // next, so rescan from the top until no entry overlaps.
  bool merged = true;
  while (merged) {
    merged = false;
    for (auto it = list.begin(); it != list.end(); ++it) {
      const double q_end = it->start + it->width;
      const double p_end = p.start + p.width;
      if (p.start <= q_end && it->start <= p_end) {
        const double lo = std::min(it->start, p.start);
        const double hi = std::max(q_end, p_end);
        p.start = lo;
        p.width = hi - lo;
        list.erase(it);
        merged = true;
        break;
      }
    }
  }
  if (static_cast<int>(list.size()) < inj.params().max_pulses_per_node) {
    list.push_back(p);
    return;
  }
  // Keep the widest pulses (widest are hardest to mask downstream).
  auto narrowest = std::min_element(
      list.begin(), list.end(),
      [](const Pulse& a, const Pulse& b) { return a.width < b.width; });
  if (narrowest->width < p.width) *narrowest = p;
}

InjectionResult inject(const InjectionSimulator& inj,
                       const netlist::LogicSimulator& sim,
                       std::span<const NodeId> struck, double strike_time) {
  FAV_ENSURE_MSG(strike_time >= 0.0, "strike time must be non-negative");
  InjectionResult result;

  const netlist::Netlist& nl = sim.netlist();
  const TimingAnalysis& timing = inj.timing();
  std::vector<std::vector<Pulse>> pulses(nl.node_count());
  std::vector<NodeId> flips;
  const auto add = [&](NodeId id, Pulse p) { add_pulse(inj, pulses[id], p); };

  for (NodeId g : struck) {
    const auto& n = nl.node(g);
    if (n.type == CellType::kDff) {
      ++result.struck_dffs;
      if (std::find(flips.begin(), flips.end(), g) == flips.end()) {
        flips.push_back(g);
        ++result.direct_flips;
      }
    } else if (netlist::is_combinational_gate(n.type)) {
      ++result.struck_gates;
      add(g, {std::max(strike_time, timing.arrival(g)),
              inj.params().initial_width});
    }
  }

  // Topological sweep: every gate is visited after all producers, so pulse
  // lists are final when consumed.
  const TimingModel& tm = timing.model();
  for (NodeId id : nl.topo_order()) {
    const auto& n = nl.node(id);
    for (int pin = 0; pin < static_cast<int>(n.fanins.size()); ++pin) {
      const auto& in_pulses = pulses[n.fanins[pin]];
      if (in_pulses.empty()) continue;
      if (!sensitized(sim, id, pin)) continue;
      for (const Pulse& p : in_pulses) {
        const double width = p.width - tm.attenuation;
        if (width < tm.min_pulse_width) continue;  // electrically masked
        add(id, {p.start + tm.delay(n.type), width});
      }
    }
  }

  // Latching-window check at every DFF D input.
  const double window_lo = timing.clock_period() - tm.setup_time;
  const double window_hi = timing.clock_period() + tm.hold_time;
  for (NodeId dff : nl.dffs()) {
    const NodeId d = nl.node(dff).fanins[0];
    for (const Pulse& p : pulses[d]) {
      if (p.start <= window_hi && window_lo <= p.start + p.width) {
        if (std::find(flips.begin(), flips.end(), dff) == flips.end()) {
          flips.push_back(dff);
          ++result.latched_flips;
        }
        break;
      }
    }
  }

  result.flipped_dffs.assign(flips.begin(), flips.end());
  std::sort(result.flipped_dffs.begin(), result.flipped_dffs.end());
  return result;
}

std::vector<NodeId> flipped_dffs(const GlitchSimulator& glitch,
                                 const netlist::LogicSimulator& sim,
                                 TechniqueKind kind, double level) {
  FAV_ENSURE_MSG(is_glitch_kind(kind), "not a glitch technique");
  check_glitch_level(kind, level);
  const netlist::Netlist& nl = sim.netlist();
  const double period = glitch.timing().clock_period();
  const double setup = glitch.timing().model().setup_time;
  std::vector<NodeId> flips;
  for (const NodeId dff : nl.dffs()) {
    const NodeId d = nl.node(dff).fanins[0];
    if (!misses_setup(kind, glitch.timing().arrival(d), setup, period,
                      level)) {
      continue;
    }
    // Too slow: the register holds its old value. It is an *error* only if
    // the new D actually differs.
    if (sim.value(d) != sim.value(dff)) flips.push_back(dff);
  }
  return flips;  // dffs() is ascending, so already sorted
}

std::vector<NodeId> flip_set(const AttackTechnique& technique,
                             const netlist::LogicSimulator& sim,
                             const FaultSample& sample) {
  if (technique.kind() == TechniqueKind::kRadiation) {
    const auto& radiation = static_cast<const RadiationTechnique&>(technique);
    const std::vector<NodeId> struck =
        radiation.placement().nodes_within(sample.center, sample.radius);
    const double strike_time =
        sample.strike_frac * radiation.injector().timing().clock_period();
    return inject(radiation.injector(), sim, struck, strike_time).flipped_dffs;
  }
  const auto& glitch = static_cast<const GlitchTechnique&>(technique);
  return flipped_dffs(glitch.simulator(), sim, glitch.kind(), sample.depth);
}

}  // namespace fav::faultsim::oracle
