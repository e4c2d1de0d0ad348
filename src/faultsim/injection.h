// Gate-level fault-injection-cycle simulator (paper Section 5.3).
//
// Given the settled logic values of the injection cycle and the set of cells
// inside the radiated spot, this simulator:
//  1. seeds voltage transients at the outputs of the struck combinational
//     gates (struck DFF cells upset directly, like an SEU),
//  2. propagates the transients to the registers in topological order,
//     applying logical masking (controlling side inputs) and electrical
//     masking (per-stage pulse-width attenuation), and
//  3. applies latching-window masking: a pulse reaching a D input flips the
//     captured bit only if it overlaps the setup/hold window of the edge.
// The output is the set of DFFs whose latched value differs from the golden
// run — the cross-level hand-off back to RTL level (Fig. 5). inject_batch()
// is the library's only injection path: one event-driven sweep computes up
// to 64 samples' flip sets. The scalar one-sample model it must match bit for
// bit is a test oracle (tests/faultsim/scalar_flip_set.h).
//
// The simulator is generic over any netlist; the SoC binding (DFF -> flat
// register-map bit) happens in the Monte Carlo layer.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "faultsim/timing.h"
#include "netlist/logicsim.h"

namespace fav::faultsim {

struct TransientParams {
  /// Pulse width induced at a struck gate's output (same units as delays).
  double initial_width = 3.0;
  /// Bound on tracked pulses per net; overlapping pulses are merged first,
  /// and the widest survivors are kept (protects against pathological fanout
  /// reconvergence blow-up).
  int max_pulses_per_node = 4;
};

/// A voltage transient on a net: [start, start + width) within the cycle.
struct Pulse {
  double start = 0;
  double width = 0;
};

/// Reusable per-thread buffers for inject_batch(). Everything is indexed by
/// topological position and keeps its capacity across calls; only the
/// positions the previous sweep visited are reset. A visited gate builds
/// each lane's pulse list in that lane's fixed stage slot (room for
/// max_pulses_per_node pulses, no heap) and then emits the lists into one
/// arena, grouped by lane, with a mask of the lanes that carry a pulse.
/// Not thread-safe: one scratch per worker.
class BatchInjectionScratch {
 public:
  BatchInjectionScratch() = default;

  /// Gates the last inject_batch() sweep visited (0 before the first).
  std::size_t visited() const { return visited_; }

 private:
  friend class InjectionSimulator;
  static constexpr std::uint32_t kNoSeed = 0xFFFFFFFFu;
  struct LanePulse {
    Pulse pulse;
    int lane = 0;
  };
  struct Seed {
    Pulse pulse;
    int lane = 0;
    std::uint32_t next = kNoSeed;
  };
  /// Per-position state: the position's emitted pulse list is
  /// pulses_[begin, end), grouped by lane, `lanes` has bit l set iff lane l
  /// has an entry there, and its seeds are a linked list in seeding order.
  struct Slot {
    std::uint64_t lanes = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    std::uint32_t seed_head = kNoSeed;
    std::uint32_t seed_tail = kNoSeed;
  };
  void prepare(std::size_t positions, int max_pulses);

  std::vector<std::uint64_t> frontier_;  // bit per position to visit
  std::vector<Slot> slots_;              // one per position + empty sentinel
  std::vector<LanePulse> pulses_;
  std::vector<Seed> seeds_;
  /// Lane l's list being built: stage_[l * max_pulses, + stage_count_[l]).
  std::vector<Pulse> stage_;
  std::array<std::uint32_t, 64> stage_count_{};
  std::size_t visited_ = 0;
};

class InjectionSimulator {
 public:
  explicit InjectionSimulator(const netlist::Netlist& nl,
                              const TimingModel& timing_model = {},
                              const TransientParams& params = {});

  /// Bit-parallel injection: computes the flip sets of up to 64 independent
  /// samples in one event-driven sweep. Lane `l` uses struck set `struck[l]`
  /// (the cells inside its radiated region, from
  /// layout::Placement::nodes_within) and strike time `strike_times[l]`
  /// against `sim`'s lane-`l` values, which must hold a settled injection
  /// cycle (each lane may hold a different one). The strike time is the hit
  /// instant within the cycle, in [0, clock_period): a struck gate's
  /// transient begins at max(strike_time, arrival(gate)) because glitches
  /// that fire before the gate recomputes are overwritten. Struck DFF cells
  /// upset unconditionally. Only gates a pulse reaches are visited, in
  /// topological order. On return `flipped[l]` holds lane l's flipped DFFs
  /// (sorted, unique).
  void inject_batch(const netlist::WordSimulator& sim,
                    std::span<const std::span<const netlist::NodeId>> struck,
                    std::span<const double> strike_times,
                    BatchInjectionScratch& scratch,
                    std::vector<std::vector<netlist::NodeId>>& flipped) const;

  const TimingAnalysis& timing() const { return timing_; }
  const TransientParams& params() const { return params_; }

  /// The pulse-list insertion inject_batch() stages with: transitively
  /// merges `p` with every overlapping entry (a union can grow into a
  /// neighbour, so merging rescans until stable, and each merged entry is
  /// removed with the rest kept in order), then appends the result, or when
  /// the list is at max_pulses_per_node replaces the first narrowest entry
  /// if the new pulse is wider. `slot[0, count)` is the list and `slot` has
  /// room for max_pulses_per_node entries. Exposed for tests, which check it
  /// against the scalar oracle's vector form.
  void add_pulse(Pulse* slot, std::uint32_t& count, Pulse p) const;

 private:
  /// One combinational gate of the sweep graph, indexed by topological
  /// position: what inject_batch() needs, without touching netlist::Node.
  /// Each range ends where the next position's begins.
  struct SweepGate {
    double delay = 0;
    double arrival = 0;  // a struck gate's transient starts no earlier
    netlist::CellType type = netlist::CellType::kBuf;
    std::uint32_t fanin_begin = 0;  // into fanins_, cell_arity(type) long
    std::uint32_t out_begin = 0;    // into consumers_
    std::uint32_t dff_begin = 0;    // into dff_sinks_
  };
  struct SweepFanin {
    netlist::NodeId node = 0;  // for the word lookup
    std::uint32_t pos = 0;     // producer position; gate count for a source
  };
  /// Node kind markers in position_ besides a gate's topological position.
  static constexpr std::uint32_t kDffPosition = 0xFFFFFFFFu;
  static constexpr std::uint32_t kSourcePosition = 0xFFFFFFFEu;

  /// Word-wise sensitization: bit l of the result says whether lane l's
  /// side-input values let a glitch on `pin` of `gate` through.
  std::uint64_t sensitized_mask(const netlist::WordSimulator& sim,
                                const SweepGate& gate, int pin) const;

  TimingAnalysis timing_;
  TransientParams params_;
  // Flat sweep graph, built at construction (the injector is shared
  // read-only across workers).
  std::vector<SweepGate> gates_;
  std::vector<SweepFanin> fanins_;
  std::vector<std::uint32_t> consumers_;  // combinational consumer positions
  std::vector<netlist::NodeId> dff_sinks_;  // DFFs whose D net is the gate
  std::vector<std::uint32_t> position_;     // NodeId -> position or kind
};

}  // namespace fav::faultsim
