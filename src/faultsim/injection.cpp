#include "faultsim/injection.h"

#include <algorithm>
#include <bit>

namespace fav::faultsim {

using netlist::CellType;
using netlist::Netlist;
using netlist::NodeId;

void InjectionScratch::prepare(std::size_t node_count) {
  // Clear before resizing: a shrink would otherwise leave touched_ entries
  // pointing past the new end when a scratch is reused across netlists.
  for (NodeId id : touched_) pulses_[id].clear();
  touched_.clear();
  flips_.clear();
  pulses_.resize(node_count);
}

void BatchInjectionScratch::prepare(std::size_t positions) {
  // Reset only what the previous sweep visited (every seeded or emitted
  // position has its frontier bit set), then fit the new netlist.
  for (std::size_t w = 0; w < frontier_.size(); ++w) {
    for (std::uint64_t bits = frontier_[w]; bits != 0; bits &= bits - 1) {
      slots_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] = {};
    }
    frontier_[w] = 0;
  }
  frontier_.resize((positions + 63) / 64);
  slots_.resize(positions + 1);  // the last slot is the sources' empty list
  pulses_.clear();
  seeds_.clear();
  for (auto& list : stage_) list.clear();  // non-empty only after a throw
  visited_ = 0;
}

InjectionSimulator::InjectionSimulator(const Netlist& nl,
                                       const TimingModel& timing_model,
                                       const TransientParams& params)
    : nl_(&nl), timing_(nl, timing_model), params_(params) {
  FAV_ENSURE(params.initial_width > 0);
  FAV_ENSURE(params.max_pulses_per_node >= 1);

  const std::vector<NodeId>& topo = nl.topo_order();
  const auto gate_count = static_cast<std::uint32_t>(topo.size());
  position_.assign(nl.node_count(), kSourcePosition);
  for (std::uint32_t pos = 0; pos < gate_count; ++pos) {
    position_[topo[pos]] = pos;
  }
  for (NodeId dff : nl.dffs()) position_[dff] = kDffPosition;

  // Fanins in topological order; source fanins point at the empty slot
  // past the last gate. Meanwhile each gate's out_begin / dff_begin counts
  // its gate and DFF consumers. The entry at the end of gates_ only closes
  // the last gate's ranges.
  gates_.resize(gate_count + 1);
  fanins_.reserve(3 * std::size_t{gate_count});  // no cell has more pins
  for (std::uint32_t pos = 0; pos < gate_count; ++pos) {
    const netlist::Node& n = nl.node(topo[pos]);
    SweepGate& g = gates_[pos];
    g.type = n.type;
    g.delay = timing_.model().delay(n.type);
    g.fanin_begin = static_cast<std::uint32_t>(fanins_.size());
    for (NodeId f : n.fanins) {
      const std::uint32_t from = std::min(position_[f], gate_count);
      fanins_.push_back({f, from});
      if (from < gate_count) ++gates_[from].out_begin;
    }
  }
  gates_.back().fanin_begin = static_cast<std::uint32_t>(fanins_.size());
  const auto d_position = [&](NodeId dff) {
    const netlist::Node& n = nl.node(dff);
    return n.fanins.empty() ? gate_count
                            : std::min(position_[n.fanins[0]], gate_count);
  };
  for (NodeId dff : nl.dffs()) {
    const std::uint32_t from = d_position(dff);
    if (from < gate_count) ++gates_[from].dff_begin;
  }
  // Running sums turn the counts into range ends, and filling every range
  // back to front leaves its begin in place (a consumer list ascends).
  std::uint32_t outs = 0;
  std::uint32_t sinks = 0;
  for (SweepGate& g : gates_) {
    outs += g.out_begin;
    g.out_begin = outs;
    sinks += g.dff_begin;
    g.dff_begin = sinks;
  }
  consumers_.resize(outs);
  dff_sinks_.resize(sinks);
  for (std::uint32_t pos = gate_count; pos-- > 0;) {
    const SweepFanin* in = &fanins_[gates_[pos].fanin_begin];
    for (int pin = netlist::cell_arity(gates_[pos].type); pin-- > 0;) {
      if (in[pin].pos < gate_count) {
        consumers_[--gates_[in[pin].pos].out_begin] = pos;
      }
    }
  }
  for (NodeId dff : nl.dffs()) {
    const std::uint32_t from = d_position(dff);
    if (from < gate_count) dff_sinks_[--gates_[from].dff_begin] = dff;
  }
}

bool InjectionSimulator::sensitized(const netlist::LogicSimulator& sim,
                                    NodeId node, int pin) const {
  const auto& n = nl_->node(node);
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

std::uint64_t InjectionSimulator::sensitized_mask(
    const netlist::WordSimulator& sim, const SweepGate& gate, int pin) const {
  const SweepFanin* in = &fanins_[gate.fanin_begin];
  if (gate.type == CellType::kMux) {
    const std::uint64_t sel = sim.word(in[0].node);
    if (pin == 0) {
      // A glitching select only matters where the two data inputs differ.
      return sim.word(in[1].node) ^ sim.word(in[2].node);
    }
    return pin == 2 ? sel : ~sel;  // the unselected data pin is masked
  }
  std::uint64_t mask = ~std::uint64_t{0};
  for (int j = 0; j < netlist::cell_arity(gate.type); ++j) {
    if (j == pin) continue;
    const std::uint64_t w = sim.word(in[j].node);
    // A controlling side input absorbs the glitch in that lane.
    if (netlist::is_controlling_value(gate.type, j, false)) mask &= w;
    if (netlist::is_controlling_value(gate.type, j, true)) mask &= ~w;
  }
  return mask;
}

void InjectionSimulator::add_pulse(std::vector<Pulse>& list, Pulse p) const {
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
  if (static_cast<int>(list.size()) < params_.max_pulses_per_node) {
    list.push_back(p);
    return;
  }
  // Keep the widest pulses (widest are hardest to mask downstream).
  auto narrowest = std::min_element(
      list.begin(), list.end(),
      [](const Pulse& a, const Pulse& b) { return a.width < b.width; });
  if (narrowest->width < p.width) *narrowest = p;
}

InjectionResult InjectionSimulator::inject(const netlist::LogicSimulator& sim,
                                           std::span<const NodeId> struck,
                                           double strike_time) const {
  InjectionScratch scratch;
  return inject(sim, struck, strike_time, scratch);
}

InjectionResult InjectionSimulator::inject(const netlist::LogicSimulator& sim,
                                           std::span<const NodeId> struck,
                                           double strike_time,
                                           InjectionScratch& scratch) const {
  FAV_ENSURE_MSG(strike_time >= 0.0, "strike time must be non-negative");
  InjectionResult result;

  scratch.prepare(nl_->node_count());
  auto& pulses = scratch.pulses_;
  auto& flips = scratch.flips_;
  const auto add = [&](NodeId id, Pulse p) {
    if (pulses[id].empty()) scratch.touched_.push_back(id);
    add_pulse(pulses[id], p);
  };

  for (NodeId g : struck) {
    const auto& n = nl_->node(g);
    if (n.type == CellType::kDff) {
      ++result.struck_dffs;
      if (std::find(flips.begin(), flips.end(), g) == flips.end()) {
        flips.push_back(g);
        ++result.direct_flips;
      }
    } else if (netlist::is_combinational_gate(n.type)) {
      ++result.struck_gates;
      add(g, {std::max(strike_time, timing_.arrival(g)),
              params_.initial_width});
    }
  }

  // Topological sweep: every gate is visited after all producers, so pulse
  // lists are final when consumed.
  const TimingModel& tm = timing_.model();
  for (NodeId id : nl_->topo_order()) {
    const auto& n = nl_->node(id);
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
  const double window_lo = timing_.clock_period() - tm.setup_time;
  const double window_hi = timing_.clock_period() + tm.hold_time;
  for (NodeId dff : nl_->dffs()) {
    const NodeId d = nl_->node(dff).fanins[0];
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

void InjectionSimulator::inject_batch(
    const netlist::WordSimulator& sim,
    std::span<const std::vector<NodeId>> struck,
    std::span<const double> strike_times, BatchInjectionScratch& scratch,
    std::vector<std::vector<NodeId>>& flipped) const {
  const int lanes = static_cast<int>(struck.size());
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  FAV_ENSURE_MSG(strike_times.size() == struck.size(),
                 "one strike time per lane required");
  for (const double t : strike_times) {
    FAV_ENSURE_MSG(t >= 0.0, "strike time must be non-negative");
  }

  scratch.prepare(gates_.size() - 1);
  auto& frontier = scratch.frontier_;
  auto& slots = scratch.slots_;
  auto& pulses = scratch.pulses_;
  auto& seeds = scratch.seeds_;
  auto& stage = scratch.stage_;
  const auto mark = [&](std::uint32_t pos) {
    frontier[pos / 64] |= std::uint64_t{1} << (pos % 64);
  };

  flipped.resize(struck.size());
  for (auto& f : flipped) f.clear();

  // Struck gates seed the frontier. Each position's seeds stay in seeding
  // order (lane by lane, struck order within a lane), which is the order the
  // scalar path adds them in.
  for (int lane = 0; lane < lanes; ++lane) {
    for (NodeId g : struck[lane]) {
      FAV_ENSURE_MSG(g < position_.size(), "struck node out of range");
      const std::uint32_t pos = position_[g];
      if (pos == kDffPosition) {
        flipped[lane].push_back(g);  // duplicates collapse in the final sort
        continue;
      }
      if (pos == kSourcePosition) continue;
      const auto s = static_cast<std::uint32_t>(seeds.size());
      seeds.push_back({{std::max(strike_times[lane], timing_.arrival(g)),
                        params_.initial_width},
                       lane});
      BatchInjectionScratch::Slot& slot = slots[pos];
      if (slot.seed_head == BatchInjectionScratch::kNoSeed) {
        slot.seed_head = s;
      } else {
        seeds[slot.seed_tail].next = s;
      }
      slot.seed_tail = s;
      mark(pos);
    }
  }

  // Forward scan of the frontier: a gate is visited only if it was struck or
  // one of its fanins carries a pulse, and consumers always sit at later
  // positions, so visits follow the topological order and every fanin list
  // is final when read. Each lane's list is built in its own stage with the
  // scalar add_pulse — seeds first, then pins in pin order, exactly as the
  // scalar sweep adds them — and then emitted grouped by lane.
  const TimingModel& tm = timing_.model();
  const double window_lo = timing_.clock_period() - tm.setup_time;
  const double window_hi = timing_.clock_period() + tm.hold_time;
  const auto visit = [&](std::uint32_t pos) {
    const SweepGate& gate = gates_[pos];
    const SweepGate& next = gates_[pos + 1];
    std::uint64_t staged = 0;
    for (std::uint32_t s = slots[pos].seed_head;
         s != BatchInjectionScratch::kNoSeed; s = seeds[s].next) {
      add_pulse(stage[seeds[s].lane], seeds[s].pulse);
      staged |= std::uint64_t{1} << seeds[s].lane;
    }
    const int arity = netlist::cell_arity(gate.type);
    for (int pin = 0; pin < arity; ++pin) {
      const BatchInjectionScratch::Slot& in =
          slots[fanins_[gate.fanin_begin + pin].pos];
      if (in.begin == in.end) continue;
      const std::uint64_t sens = sensitized_mask(sim, gate, pin);
      if (sens == 0) continue;
      for (std::uint32_t k = in.begin; k < in.end; ++k) {
        const BatchInjectionScratch::LanePulse& e = pulses[k];
        if (((sens >> e.lane) & 1u) == 0) continue;  // logically masked
        const double width = e.pulse.width - tm.attenuation;
        if (width < tm.min_pulse_width) continue;  // electrically masked
        add_pulse(stage[e.lane], {e.pulse.start + gate.delay, width});
        staged |= std::uint64_t{1} << e.lane;
      }
    }
    if (staged == 0) return;

    BatchInjectionScratch::Slot& out = slots[pos];
    out.begin = static_cast<std::uint32_t>(pulses.size());
    for (std::uint64_t bits = staged; bits != 0; bits &= bits - 1) {
      const int lane = std::countr_zero(bits);
      for (const Pulse& p : stage[lane]) pulses.push_back({p, lane});
      stage[lane].clear();
    }
    out.end = static_cast<std::uint32_t>(pulses.size());
    for (std::uint32_t c = gate.out_begin; c < next.out_begin; ++c) {
      mark(consumers_[c]);
    }
    // Latching-window check at the DFFs this net drives; the per-DFF mask
    // mirrors the scalar "first latching pulse wins, insert once" semantics.
    if (gate.dff_begin == next.dff_begin) return;
    std::uint64_t latched = 0;
    for (std::uint32_t k = out.begin; k < out.end; ++k) {
      const Pulse& p = pulses[k].pulse;
      if (p.start <= window_hi && window_lo <= p.start + p.width) {
        latched |= std::uint64_t{1} << pulses[k].lane;
      }
    }
    for (std::uint32_t d = gate.dff_begin; d < next.dff_begin; ++d) {
      for (std::uint64_t bits = latched; bits != 0; bits &= bits - 1) {
        flipped[std::countr_zero(bits)].push_back(dff_sinks_[d]);
      }
    }
  };
  for (std::size_t w = 0; w < frontier.size(); ++w) {
    // Visits only mark later positions, so rereading the word after each
    // visit picks up bits set in it meanwhile.
    std::uint64_t pending = frontier[w];
    while (pending != 0) {
      const int b = std::countr_zero(pending);
      visit(static_cast<std::uint32_t>(w * 64 + b));
      ++scratch.visited_;
      pending = frontier[w] & ~((std::uint64_t{2} << b) - 1);
    }
  }

  for (auto& f : flipped) {
    std::sort(f.begin(), f.end());
    f.erase(std::unique(f.begin(), f.end()), f.end());
  }
}

}  // namespace fav::faultsim
