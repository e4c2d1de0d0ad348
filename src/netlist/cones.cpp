#include "netlist/cones.h"

#include <algorithm>
#include <deque>

namespace fav::netlist {

namespace {

struct Visit {
  NodeId node;
  int frame;
};

/// Marks `id` in `seen`; true when it was not marked before.
bool claim(BitVector& seen, NodeId id) {
  if (seen.test(id)) return false;
  seen.set(id, true);
  return true;
}

/// Union of one member list over `frames`, deduplicated, ascending id.
std::vector<NodeId> union_of(const std::vector<ConeFrame>& frames,
                             std::vector<NodeId> ConeFrame::*list,
                             std::size_t node_count) {
  BitVector seen(node_count);
  for (const ConeFrame& f : frames) {
    for (const NodeId id : f.*list) seen.set(id, true);
  }
  std::vector<NodeId> out;
  for (const std::size_t id : seen.set_bits()) {
    out.push_back(static_cast<NodeId>(id));
  }
  return out;
}

}  // namespace

UnrolledCone::UnrolledCone(const Netlist& nl, NodeId responding_signal,
                           int fanin_depth, int fanout_depth)
    : rs_(responding_signal), fanout_depth_(fanout_depth) {
  FAV_ENSURE(fanin_depth >= 0);
  FAV_ENSURE(fanout_depth >= 0);
  FAV_ENSURE_MSG(responding_signal < nl.node_count(),
                "responding signal id out of range");

  fanin_.resize(static_cast<std::size_t>(fanin_depth) + 1);
  for (int i = 0; i <= fanin_depth; ++i) fanin_[static_cast<std::size_t>(i)].frame = i;
  fanout_.resize(static_cast<std::size_t>(fanout_depth));
  for (int i = 0; i < fanout_depth; ++i) {
    fanout_[static_cast<std::size_t>(i)].frame = -(i + 1);
  }
  members_.assign(static_cast<std::size_t>(fanin_depth + fanout_depth) + 1,
                  BitVector(nl.node_count()));

  extract_fanin(nl, fanin_depth);
  extract_fanout(nl, fanout_depth);

  auto sort_frame = [](ConeFrame& f) {
    std::sort(f.gates.begin(), f.gates.end());
    std::sort(f.registers.begin(), f.registers.end());
  };
  for (auto& f : fanin_) sort_frame(f);
  for (auto& f : fanout_) sort_frame(f);
}

UnrolledCone::UnrolledCone(NodeId responding_signal, std::size_t node_count,
                           std::vector<ConeFrame> fanin_frames,
                           std::vector<ConeFrame> fanout_frames)
    : rs_(responding_signal),
      fanin_(std::move(fanin_frames)),
      fanout_(std::move(fanout_frames)) {
  fanout_depth_ = static_cast<int>(fanout_.size());
  FAV_ENSURE_MSG(!fanin_.empty(), "cone needs at least frame 0");
  FAV_ENSURE_MSG(responding_signal < node_count,
                 "responding signal id out of range");
  for (std::size_t i = 0; i < fanin_.size(); ++i) {
    FAV_ENSURE_MSG(fanin_[i].frame == static_cast<int>(i),
                  "fanin frame order violated at index " << i);
  }
  for (std::size_t i = 0; i < fanout_.size(); ++i) {
    FAV_ENSURE_MSG(fanout_[i].frame == -static_cast<int>(i) - 1,
                  "fanout frame order violated at index " << i);
  }
  members_.assign(fanin_.size() + fanout_.size(), BitVector(node_count));
  for (const auto& frames : {&fanin_, &fanout_}) {
    for (const ConeFrame& f : *frames) {
      BitVector& bits =
          members_[static_cast<std::size_t>(f.frame + fanout_depth_)];
      for (const auto* ids : {&f.gates, &f.registers}) {
        for (const NodeId id : *ids) {
          FAV_ENSURE_MSG(id < node_count, "cone member id out of range");
          bits.set(id, true);
        }
      }
    }
  }
}

const ConeFrame& UnrolledCone::frame(int frame_index) const {
  FAV_ENSURE_MSG(has_frame(frame_index), "frame " << frame_index << " not extracted");
  if (frame_index >= 0) return fanin_[static_cast<std::size_t>(frame_index)];
  return fanout_[static_cast<std::size_t>(-frame_index - 1)];
}

bool UnrolledCone::has_frame(int frame_index) const {
  return frame_index >= -fanout_depth_ &&
         frame_index <= static_cast<int>(fanin_.size()) - 1;
}

bool UnrolledCone::contains(int frame_index, NodeId node) const {
  if (!has_frame(frame_index)) return false;
  const BitVector& bits =
      members_[static_cast<std::size_t>(frame_index + fanout_depth_)];
  return node < bits.size() && bits.test(node);
}

const BitVector& UnrolledCone::members(int frame_index) const {
  FAV_ENSURE_MSG(has_frame(frame_index),
                 "frame " << frame_index << " not extracted");
  return members_[static_cast<std::size_t>(frame_index + fanout_depth_)];
}

std::vector<NodeId> UnrolledCone::all_fanin_registers() const {
  return union_of(fanin_, &ConeFrame::registers, members_[0].size());
}

std::vector<NodeId> UnrolledCone::all_fanin_gates() const {
  return union_of(fanin_, &ConeFrame::gates, members_[0].size());
}

void UnrolledCone::extract_fanin(const Netlist& nl, int depth) {
  std::deque<Visit> queue;
  queue.push_back({rs_, 0});
  auto offset = [&](int frame) {
    return static_cast<std::size_t>(frame + fanout_depth_);
  };

  while (!queue.empty()) {
    const auto [id, frame] = queue.front();
    queue.pop_front();
    if (!claim(members_[offset(frame)], id)) continue;

    const Node& n = nl.node(id);
    auto& cf = fanin_[static_cast<std::size_t>(frame)];
    if (n.type == CellType::kDff) {
      cf.registers.push_back(id);
      // A fault stored in this DFF at `frame` was injected into its D-input
      // logic one cycle earlier.
      if (frame + 1 <= depth) {
        for (NodeId f : n.fanins) queue.push_back({f, frame + 1});
      }
    } else if (is_combinational_gate(n.type)) {
      cf.gates.push_back(id);
      for (NodeId f : n.fanins) queue.push_back({f, frame});
    }
    // primary inputs / constants terminate the traversal
  }
}

void UnrolledCone::extract_fanout(const Netlist& nl, int depth) {
  const auto& fanouts = nl.fanouts();
  std::deque<Visit> queue;
  queue.push_back({rs_, 0});
  // Forward traversal needs its own visited set: a node can legitimately be
  // in both the fanin and the fanout cone of the same frame (reconvergence
  // through the responding signal), and frame-0 membership was already
  // claimed by extract_fanin for the fanin side.
  std::vector<BitVector> seen(static_cast<std::size_t>(depth) + 1,
                              BitVector(nl.node_count()));

  while (!queue.empty()) {
    const auto [id, frame] = queue.front();
    queue.pop_front();
    if (!claim(seen[static_cast<std::size_t>(-frame)], id)) continue;

    for (const auto& e : fanouts[id]) {
      const Node& c = nl.node(e.consumer);
      if (c.type == CellType::kDff) {
        // Value latched at the end of `frame` influences the next cycle.
        const int next = frame - 1;
        if (next < -depth) continue;
        auto& cf = fanout_[static_cast<std::size_t>(-next - 1)];
        if (claim(members_[static_cast<std::size_t>(next + fanout_depth_)],
                  e.consumer)) {
          cf.registers.push_back(e.consumer);
        }
        queue.push_back({e.consumer, next});
      } else if (is_combinational_gate(c.type)) {
        if (frame < 0) {
          auto& cf = fanout_[static_cast<std::size_t>(-frame - 1)];
          if (claim(members_[static_cast<std::size_t>(frame + fanout_depth_)],
                    e.consumer)) {
            cf.gates.push_back(e.consumer);
          }
        } else {
          // Combinational fanout inside the observation cycle: timing
          // distance is still 0, so it joins frame 0 (shared with fanin).
          if (claim(members_[static_cast<std::size_t>(fanout_depth_)],
                    e.consumer)) {
            fanin_[0].gates.push_back(e.consumer);
          }
        }
        queue.push_back({e.consumer, frame});
      }
    }
  }
}

}  // namespace fav::netlist
