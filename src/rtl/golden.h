// Golden run with checkpointing (paper Section 5.1).
//
// Runs the benchmark once fault-free at RTL level, dumping:
//  * full checkpoints (architectural state + RAM) every `checkpoint_interval`
//    cycles, so fault-attack runs can restart near the injection cycle,
//  * the architectural state at every cycle boundary (needed for golden
//    comparison and for error-lifetime characterization),
//  * the responding-signal (MPU violation) trace, which locates the target
//    cycle Tt of the benchmark's illegal access.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rtl/machine.h"
#include "util/bitvector.h"

namespace fav::rtl {

struct Checkpoint {
  std::uint64_t cycle = 0;
  ArchState state;
  Memory ram;
};

/// One data-memory access observed during the golden run. The analytical
/// evaluator replays this trace against a corrupted MPU configuration to
/// decide an attack outcome without RTL re-simulation.
struct AccessRecord {
  std::uint64_t cycle = 0;
  std::uint16_t addr = 0;
  bool is_write = false;
  bool is_device = false;  // device-page access (MPU config / status)
  bool is_dma = false;     // issued by the DMA engine (device page denied)
};

class GoldenRun {
 public:
  /// Runs `program` for up to `max_cycles` (stops after halt). The golden
  /// run keeps a reference to `program`; it must outlive this object.
  GoldenRun(const Program& program, std::uint64_t max_cycles,
            std::uint64_t checkpoint_interval = 32);
  /// GoldenRun keeps a reference to the program: temporaries would dangle.
  GoldenRun(Program&&, std::uint64_t, std::uint64_t = 32) = delete;

  const Program& program() const { return *program_; }

  /// Number of cycles executed (including the halting cycle).
  std::uint64_t length() const { return length_; }

  /// Architectural state at the *beginning* of cycle `cycle`
  /// (cycle 0 = reset state; cycle length() = final state).
  const ArchState& state_at(std::uint64_t cycle) const;

  /// Responding-signal value during cycle `cycle` (0 <= cycle < length()).
  bool viol_at(std::uint64_t cycle) const;

  /// PC at the beginning of `cycle` — the address fetched during that cycle
  /// (used for instruction-check replay).
  std::uint16_t pc_at(std::uint64_t cycle) const;
  /// First cycle whose MPU violation wire fired, if any.
  std::optional<std::uint64_t> first_violation_cycle() const;

  const ArchState& final_state() const { return final_state_; }
  const Memory& final_ram() const { return final_ram_; }

  /// All data-memory accesses of the fault-free run, in cycle order.
  const std::vector<AccessRecord>& accesses() const { return accesses_; }

  /// Latest checkpoint at or before `cycle`.
  const Checkpoint& nearest_checkpoint(std::uint64_t cycle) const;
  const std::vector<Checkpoint>& checkpoints() const { return checkpoints_; }

  /// Returns a Machine positioned at the beginning of `cycle`, restored from
  /// the nearest checkpoint and warmed up by RTL simulation (Fig. 5 step 3).
  /// `warmup_cycles`, if non-null, receives the number of simulated cycles.
  Machine restore(std::uint64_t cycle,
                  std::uint64_t* warmup_cycles = nullptr) const;

  /// Same as restore(), but repositions an existing machine built for this
  /// golden run's program. Reusing one machine across many restores avoids a
  /// 64K-word RAM allocation per call. The RAM is copy-assigned from the
  /// checkpoint, which turns its write log off and drops it. Callers that
  /// resume many runs from one cycle restore once, start the RAM's write log,
  /// and roll it back between runs: register characterization does this per
  /// injection cycle, and the Monte Carlo engine (DESIGN.md §6i) per
  /// distinct injection cycle among a word's diverging lanes.
  void restore_into(Machine& machine, std::uint64_t cycle,
                    std::uint64_t* warmup_cycles = nullptr) const;

  /// Bytes copy-assigned by one checkpoint restore (packed architectural
  /// state + the 64K-word RAM image). Constant per design; the Monte Carlo
  /// engine multiplies it by the restore count for the "rtl.restore_bytes"
  /// byte-traffic metric.
  std::uint64_t restore_byte_size() const;

 private:
  const Program* program_;
  std::uint64_t length_ = 0;
  std::vector<ArchState> states_;  // length()+1 entries
  BitVector viol_trace_;           // length() entries
  std::vector<Checkpoint> checkpoints_;
  std::vector<AccessRecord> accesses_;
  ArchState final_state_;
  Memory final_ram_;
};

}  // namespace fav::rtl
