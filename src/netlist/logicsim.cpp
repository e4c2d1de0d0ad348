#include "netlist/logicsim.h"

#include <algorithm>

namespace fav::netlist {

namespace {

/// In-place transpose of a 64x64 bit matrix: bit c of a[r] moves to bit r of
/// a[c]. Recursive block swap (Hacker's Delight 7-3), six rounds of 32 masked
/// exchanges.
void transpose64(std::uint64_t a[64]) {
  std::uint64_t m = 0x00000000FFFFFFFFull;
  for (int j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (int k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

LogicSimulator::LogicSimulator(const Netlist& nl)
    : nl_(&nl), values_(nl.node_count(), 0) {
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == CellType::kConst1) values_[id] = 1;
  }
  nl.topo_order();  // force cycle check up-front
}

bool LogicSimulator::value(NodeId id) const {
  FAV_ENSURE(id < values_.size());
  return values_[id] != 0;
}

void LogicSimulator::set_register(NodeId dff, bool value) {
  FAV_ENSURE_MSG(nl_->is_dff(dff), "node is not a DFF");
  values_[dff] = value ? 1 : 0;
}

void LogicSimulator::set_input(NodeId input, bool value) {
  FAV_ENSURE_MSG(nl_->node(input).type == CellType::kInput,
                "node is not a primary input");
  values_[input] = value ? 1 : 0;
}

void LogicSimulator::set_input(const std::string& name, bool value) {
  set_input(nl_->find_or_throw(name), value);
}

void LogicSimulator::evaluate_comb() {
  for (NodeId id : nl_->topo_order()) {
    const Node& n = nl_->node(id);
    bool ins[3];
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      ins[i] = values_[n.fanins[i]] != 0;
    }
    values_[id] = eval_cell(n.type, {ins, n.fanins.size()}) ? 1 : 0;
  }
}

void LogicSimulator::clock_edge() {
  // Two passes so that DFF-to-DFF chains latch the pre-edge values.
  std::vector<char> next(nl_->dffs().size());
  std::size_t k = 0;
  for (NodeId dff : nl_->dffs()) {
    const Node& n = nl_->node(dff);
    FAV_ENSURE_MSG(!n.fanins.empty(), "DFF '" << n.name << "' has no D input");
    next[k++] = values_[n.fanins[0]];
  }
  k = 0;
  for (NodeId dff : nl_->dffs()) values_[dff] = next[k++];
}

void LogicSimulator::step() {
  evaluate_comb();
  clock_edge();
}

bool LogicSimulator::output(const std::string& name) const {
  return value(nl_->find_or_throw(name));
}

std::vector<bool> LogicSimulator::register_state() const {
  std::vector<bool> out;
  out.reserve(nl_->dffs().size());
  for (NodeId dff : nl_->dffs()) out.push_back(values_[dff] != 0);
  return out;
}

void LogicSimulator::load_register_state(const std::vector<bool>& state) {
  FAV_ENSURE_MSG(state.size() == nl_->dffs().size(),
                "register state size mismatch");
  std::size_t k = 0;
  for (NodeId dff : nl_->dffs()) values_[dff] = state[k++] ? 1 : 0;
}

WordSimulator::WordSimulator(const Netlist& nl)
    : nl_(&nl), values_(nl.node_count(), 0) {
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == CellType::kConst1) values_[id] = ~std::uint64_t{0};
  }
  nl.topo_order();  // force cycle check up-front
}

bool WordSimulator::value(NodeId id, int lane) const {
  FAV_ENSURE(id < values_.size());
  FAV_ENSURE(lane >= 0 && lane < 64);
  return (values_[id] >> lane) & 1u;
}

void WordSimulator::set_register_lane(NodeId dff, int lane, bool value) {
  FAV_ENSURE_MSG(nl_->is_dff(dff), "node is not a DFF");
  FAV_ENSURE(lane >= 0 && lane < 64);
  const std::uint64_t mask = std::uint64_t{1} << lane;
  if (value) {
    values_[dff] |= mask;
  } else {
    values_[dff] &= ~mask;
  }
}

void WordSimulator::set_input_lane(NodeId input, int lane, bool value) {
  FAV_ENSURE_MSG(nl_->node(input).type == CellType::kInput,
                "node is not a primary input");
  FAV_ENSURE(lane >= 0 && lane < 64);
  const std::uint64_t mask = std::uint64_t{1} << lane;
  if (value) {
    values_[input] |= mask;
  } else {
    values_[input] &= ~mask;
  }
}

void WordSimulator::broadcast_from(const LogicSimulator& scalar) {
  FAV_ENSURE_MSG(nl_ == &scalar.netlist(), "netlist mismatch in broadcast");
  for (NodeId id = 0; id < nl_->node_count(); ++id) {
    values_[id] = scalar.value(id) ? ~std::uint64_t{0} : 0;
  }
}

void WordSimulator::load_lanes(std::span<const BitVector* const> images) {
  const std::size_t lanes = images.size();
  FAV_ENSURE_MSG(lanes >= 1 && lanes <= 64, "lane count must be in [1, 64]");
  const std::size_t n = values_.size();
  for (const BitVector* image : images) {
    FAV_ENSURE_MSG(image->size() == n, "lane image size mismatch");
  }
  if (std::all_of(images.begin(), images.end(),
                  [&](const BitVector* image) { return image == images[0]; })) {
    const std::uint64_t mask =
        lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    const std::vector<std::uint64_t>& bits = images[0]->words();
    for (std::size_t id = 0; id < n; ++id) {
      values_[id] = mask & (0 - ((bits[id >> 6] >> (id & 63)) & 1u));
    }
    return;
  }
  std::uint64_t block[64];
  for (std::size_t base = 0; base < n; base += 64) {
    for (std::size_t l = 0; l < 64; ++l) {
      block[l] = l < lanes ? images[l]->words()[base >> 6] : 0;
    }
    transpose64(block);
    std::copy_n(block, std::min<std::size_t>(64, n - base),
                values_.begin() + static_cast<std::ptrdiff_t>(base));
  }
}

void WordSimulator::evaluate_comb() {
  for (NodeId id : nl_->topo_order()) {
    const Node& n = nl_->node(id);
    std::uint64_t ins[3];
    for (std::size_t i = 0; i < n.fanins.size(); ++i) {
      ins[i] = values_[n.fanins[i]];
    }
    values_[id] = eval_cell_words(n.type, {ins, n.fanins.size()});
  }
}

void WordSimulator::clock_edge() {
  // Two passes so that DFF-to-DFF chains latch the pre-edge values.
  latch_scratch_.clear();
  for (NodeId dff : nl_->dffs()) {
    const Node& n = nl_->node(dff);
    FAV_ENSURE_MSG(!n.fanins.empty(), "DFF '" << n.name << "' has no D input");
    latch_scratch_.push_back(values_[n.fanins[0]]);
  }
  std::size_t k = 0;
  for (NodeId dff : nl_->dffs()) values_[dff] = latch_scratch_[k++];
}

void WordSimulator::step() {
  evaluate_comb();
  clock_edge();
}

}  // namespace fav::netlist
