// Fanin/fanout cone extraction on the (implicitly) unrolled netlist.
//
// Section 4, Observation 1: only circuits in the fanin and fanout cones of
// the responding signals can affect them, so sampling is restricted to those
// cones. The traversal walks the unrolled netlist breadth-first starting at
// the responding signal: crossing a DFF boundary backwards increments the
// frame index (fault injected one cycle earlier), crossing forwards
// decrements it. Frame i >= 0 is the fanin side, i < 0 the fanout side,
// exactly matching the sign convention of Corr_i in the paper.
#pragma once

#include <vector>

#include "netlist/netlist.h"
#include "util/bitvector.h"

namespace fav::netlist {

/// All cone members of one unroll frame.
struct ConeFrame {
  int frame = 0;                  // cycles before (+) / after (-) observation
  std::vector<NodeId> gates;      // combinational gates in this frame
  std::vector<NodeId> registers;  // DFFs whose *stored value* in this frame
                                  // can influence the responding signal
};

class UnrolledCone {
 public:
  /// Extracts the cone of `responding_signal` up to `fanin_depth` frames
  /// backwards and `fanout_depth` frames forwards.
  UnrolledCone(const Netlist& nl, NodeId responding_signal, int fanin_depth,
               int fanout_depth);

  /// Rebuilds a cone from previously extracted frames (the artifact-cache
  /// load path). Frames must follow the extraction convention: fanin frames
  /// 0..N ascending, fanout frames -1..-M descending, members sorted, every
  /// id below `node_count`.
  UnrolledCone(NodeId responding_signal, std::size_t node_count,
               std::vector<ConeFrame> fanin_frames,
               std::vector<ConeFrame> fanout_frames);

  NodeId responding_signal() const { return rs_; }

  /// Frames 0, 1, ..., fanin_depth (ascending frame index).
  const std::vector<ConeFrame>& fanin_frames() const { return fanin_; }
  /// Frames -1, -2, ..., -fanout_depth.
  const std::vector<ConeFrame>& fanout_frames() const { return fanout_; }

  /// Frame lookup valid for -fanout_depth <= frame <= fanin_depth.
  const ConeFrame& frame(int frame_index) const;
  bool has_frame(int frame_index) const;

  /// True if `node`'s fault in `frame_index` can influence the responding
  /// signal (i.e. the node is a cone member of that frame). False for a
  /// frame that was not extracted and for an id past the netlist.
  bool contains(int frame_index, NodeId node) const;
  /// Membership of an extracted frame as one bit per node id (the set
  /// contains() tests).
  const BitVector& members(int frame_index) const;

  /// Union of registers over all fanin frames (deduplicated, ascending id).
  std::vector<NodeId> all_fanin_registers() const;
  /// Union of gates over all fanin frames (deduplicated, ascending id).
  std::vector<NodeId> all_fanin_gates() const;

 private:
  void extract_fanin(const Netlist& nl, int depth);
  void extract_fanout(const Netlist& nl, int depth);

  NodeId rs_;
  std::vector<ConeFrame> fanin_;
  std::vector<ConeFrame> fanout_;
  // members_[frame + fanout depth] = one bit per node id of the netlist
  std::vector<BitVector> members_;
  int fanout_depth_ = 0;
};

}  // namespace fav::netlist
