// Gate-level testbench around SocNetlist: the netlist plus behavioural ROM
// and RAM models, clocked cycle by cycle.
//
// Used to verify RTL/gate equivalence and as the substrate the fault-
// injection-cycle simulator operates on. State crosses levels through
// rtl::ArchState via the 1:1 DFF binding.
#pragma once

#include "netlist/logicsim.h"
#include "rtl/machine.h"
#include "soc/soc_netlist.h"

namespace fav::soc {

class GateLevelMachine {
 public:
  /// Both references must outlive this object.
  GateLevelMachine(const SocNetlist& soc, const rtl::Program& program);
  GateLevelMachine(const SocNetlist&, rtl::Program&&) = delete;

  void reset();

  /// Executes one clock cycle; returns the same observability structure as
  /// the behavioural model.
  rtl::StepInfo step();
  std::uint64_t run(std::uint64_t cycles);

  bool halted() const;
  std::uint64_t cycle() const { return cycle_; }

  /// Lifetime total, never reset — observability counter for the Monte
  /// Carlo engine's gate-sim cost metrics. A settle is two combinational
  /// evaluation passes over the whole netlist; step() performs one settle
  /// plus the clock edge.
  std::uint64_t total_settles() const { return total_settles_; }

  /// Architectural state extracted from / loaded into the netlist DFFs.
  rtl::ArchState extract_state() const;
  void load_state(const rtl::ArchState& state);

  const rtl::Memory& ram() const { return ram_; }
  rtl::Memory& mutable_ram() { return ram_; }

  const netlist::LogicSimulator& sim() const { return sim_; }
  const SocNetlist& soc() const { return *soc_; }

  /// Drives instr/mem_rdata inputs for the current cycle and settles the
  /// combinational logic (two evaluation passes: fetch, then memory read
  /// data). Does not advance the clock. Exposed so the fault-injection
  /// simulator can prepare the injection cycle's side-input values.
  void settle_inputs();

  /// Copies the settled scalar state into every lane of `words` (all-ones /
  /// all-zeros words). Callers must have run settle_inputs() first; this is
  /// the hand-off from the shared injection-cycle settle to the 64-lane
  /// batch flip-set evaluation.
  void broadcast_settled(netlist::WordSimulator& words) const;

 private:
  std::uint16_t read_output_word(const gen::Word& w) const;

  const SocNetlist* soc_;
  const rtl::Program* program_;
  netlist::LogicSimulator sim_;
  rtl::Memory ram_;
  std::uint64_t cycle_ = 0;
  std::uint64_t total_settles_ = 0;
};

}  // namespace fav::soc
