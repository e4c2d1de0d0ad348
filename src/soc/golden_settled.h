// Golden settled values of the fault-injection cycle, one row per cycle.
//
// Before a fault strikes, the injection cycle te is fault-free: its settled
// gate-level values — the side inputs that logical masking and setup
// analysis read — depend on te alone. The Monte Carlo engine therefore
// settles each golden cycle once and gathers every sample's word-simulator
// lane from that cycle's row, instead of restoring and settling per sample
// or per group (DESIGN.md §6i).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "rtl/golden.h"
#include "soc/gate_machine.h"
#include "util/bitvector.h"

namespace fav::soc {

class GoldenSettledTable {
 public:
  struct Row {
    /// Bit id = node id's value after settle_inputs() on the golden state
    /// at the beginning of the cycle (node_count() bits, ~850 bytes).
    BitVector values;
    /// The golden machine was already halted at the beginning of the cycle:
    /// no injection cycle runs there.
    bool halted = false;
    /// RTL cycles a restore to this cycle simulates: te minus the nearest
    /// checkpoint's cycle (GoldenRun::restore_into's warm-up count).
    std::uint64_t warmup = 0;
  };

  /// Empty table for cycles [0, golden.length()]; rows are built on demand.
  /// Both references must outlive the table.
  GoldenSettledTable(const SocNetlist& soc, const rtl::GoldenRun& golden);

  /// Row `te`. The first call for a cycle builds the row with one
  /// restore_into, one load_state + RAM copy and one settle_inputs on the
  /// caller's scratch machines (left holding that cycle) and sets *built;
  /// later calls return the same row. Thread-safe: each row is built once,
  /// and a returned row never changes or moves. Throws if the build does.
  const Row& row(std::uint64_t te, rtl::Machine& machine,
                 GateLevelMachine& gate, bool* built = nullptr);

 private:
  const SocNetlist* soc_;
  const rtl::GoldenRun* golden_;
  std::mutex mu_;
  std::vector<Row> rows_;  // index te; an empty `values` is not built yet
};

}  // namespace fav::soc
