// The scalar flip-set model of the injection cycle (paper Section 5.3), kept
// only as a test oracle. The library computes flip sets through one path,
// AttackTechnique::flip_set_batch(); these functions compute the same flip
// set one sample at a time, the straightforward way: a full topological
// sweep with a growable pulse vector per net for radiation, a per-register
// loop for the glitch techniques. The faultsim tests and the engine's
// ScalarOracle (tests/mc/scalar_oracle.h) check the library against them
// lane by lane.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "faultsim/attack_model.h"
#include "faultsim/glitch.h"
#include "faultsim/injection.h"
#include "faultsim/technique.h"
#include "netlist/logicsim.h"

namespace fav::faultsim::oracle {

struct InjectionResult {
  /// DFFs whose latched value flipped at the cycle edge (sorted, unique).
  std::vector<netlist::NodeId> flipped_dffs;
  std::size_t struck_gates = 0;   // combinational cells in the spot
  std::size_t struck_dffs = 0;    // sequential cells in the spot
  std::size_t latched_flips = 0;  // flips caused by latched transients
  std::size_t direct_flips = 0;   // flips caused by direct DFF upsets

  bool masked() const { return flipped_dffs.empty(); }
};

/// Radiation injection of one sample under `inj`'s timing and transient
/// parameters. `sim` must hold the injection cycle's settled combinational
/// values (see soc::GateLevelMachine::settle_inputs). `struck` lists the
/// cells inside the radiated region (from layout::Placement::nodes_within).
/// `strike_time` is the radiation hit instant within the cycle, in
/// [0, clock_period): a struck gate's transient begins at
/// max(strike_time, arrival(gate)) because glitches that fire before the
/// gate recomputes are overwritten. Struck DFF cells upset unconditionally.
InjectionResult inject(const InjectionSimulator& inj,
                       const netlist::LogicSimulator& sim,
                       std::span<const netlist::NodeId> struck,
                       double strike_time = 0.0);

/// Canonical pulse-list insertion: transitively merges `p` with every
/// overlapping entry (a union can grow into a neighbour, so merging rescans
/// until stable, and each merged entry is erased in place), then appends the
/// result, or when the list is at `inj`'s max_pulses_per_node replaces the
/// first narrowest entry if the new pulse is wider.
void add_pulse(const InjectionSimulator& inj, std::vector<Pulse>& list,
               Pulse p);

/// DFFs whose captured value is wrong under a `kind` glitch of severity
/// `level` in (0, 1). `sim` must hold the settled values of the glitched
/// cycle. Results are sorted by node id.
std::vector<netlist::NodeId> flipped_dffs(const GlitchSimulator& glitch,
                                          const netlist::LogicSimulator& sim,
                                          TechniqueKind kind, double level);

/// The flip set of `sample` under `technique`, dispatched on its kind to
/// inject() or flipped_dffs(). `sim` holds the cycle's settled values.
std::vector<netlist::NodeId> flip_set(const AttackTechnique& technique,
                                      const netlist::LogicSimulator& sim,
                                      const FaultSample& sample);

}  // namespace fav::faultsim::oracle
