// Two-valued, levelized (oblivious) logic simulator over a Netlist.
//
// This is the zero-delay gate-level simulator used for:
//  * switching-signature recording during pre-characterization,
//  * golden per-node values inside the fault-injection cycle (the timing
//    simulator needs side-input values for logical masking),
//  * lock-step equivalence checks against the behavioural RTL model.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"
#include "util/bitvector.h"

namespace fav::netlist {

class LogicSimulator {
 public:
  explicit LogicSimulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  /// Direct state access (registers may be overwritten to load checkpoints
  /// or to inject bit errors back into the sequential state).
  bool value(NodeId id) const;
  void set_register(NodeId dff, bool value);
  void set_input(NodeId input, bool value);
  void set_input(const std::string& name, bool value);

  /// Recomputes all combinational nodes from current inputs + registers.
  void evaluate_comb();

  /// Clock edge: latches every DFF's D value into its state. Callers must
  /// have run evaluate_comb() since the last input/state change.
  void clock_edge();

  /// Convenience: evaluate_comb() then clock_edge().
  void step();

  /// Reads a named output net (after evaluate_comb()).
  bool output(const std::string& name) const;

  /// Snapshot of all DFF states in Netlist::dffs() order.
  std::vector<bool> register_state() const;
  void load_register_state(const std::vector<bool>& state);

 private:
  const Netlist* nl_;
  std::vector<char> values_;  // char (not vector<bool>) for fast access
};

/// 64-lane bit-parallel logic simulator (the PPSFP word trick): every node
/// holds a uint64_t whose bit `l` is that node's value in lane `l`, so one
/// topological sweep evaluates 64 independent samples at once. Lanes start
/// identical (broadcast_from a settled scalar simulator) or from per-lane
/// packed images (load_lanes), and diverge only where per-lane inputs or
/// register upsets are forced.
class WordSimulator {
 public:
  explicit WordSimulator(const Netlist& nl);

  const Netlist& netlist() const { return *nl_; }

  /// Whole-word access: bit l of the word is lane l's value. Inline: the
  /// injection sweep reads a word per side input.
  std::uint64_t word(NodeId id) const {
    FAV_ENSURE(id < values_.size());
    return values_[id];
  }
  /// Single-lane read (lane in [0, 64)).
  bool value(NodeId id, int lane) const;

  void set_register_lane(NodeId dff, int lane, bool value);
  void set_input_lane(NodeId input, int lane, bool value);

  /// Copies a settled scalar simulator's state into every lane: each node's
  /// word becomes all-ones or all-zeros according to the scalar value.
  void broadcast_from(const LogicSimulator& scalar);

  /// Loads every node's word from packed per-lane images: lane l takes node
  /// id's value from bit id of `*images[l]` (node_count() bits each, e.g. a
  /// settled scalar state); lanes at or past images.size() read zero, and
  /// at most 64 images may be given. Lanes that share one image are the
  /// common case: when all of them do, the load is one pass over that
  /// image; otherwise it is one 64x64 bit transpose per 64 nodes.
  void load_lanes(std::span<const BitVector* const> images);

  /// Recomputes all combinational nodes from current inputs + registers,
  /// word-wise (all 64 lanes per gate evaluation).
  void evaluate_comb();

  /// Clock edge: latches every DFF's D word into its state. Callers must
  /// have run evaluate_comb() since the last input/state change.
  void clock_edge();

  /// Convenience: evaluate_comb() then clock_edge().
  void step();

 private:
  const Netlist* nl_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> latch_scratch_;  // reused by clock_edge()
};

}  // namespace fav::netlist
