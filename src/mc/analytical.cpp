#include "mc/analytical.h"

#include <algorithm>

#include "util/check.h"

namespace fav::mc {

using rtl::Machine;

AnalyticalEvaluator::AnalyticalEvaluator(const soc::SecurityBenchmark& bench,
                                         const rtl::GoldenRun& golden)
    : bench_(&bench), golden_(&golden) {
  const auto tt = golden.first_violation_cycle();
  FAV_ENSURE_MSG(tt.has_value(),
                "benchmark '" << bench.name
                              << "' raises no violation in the golden run — "
                                 "cannot locate the target cycle");
  target_cycle_ = *tt;
}

std::optional<bool> AnalyticalEvaluator::evaluate(
    const rtl::ArchState& faulty, std::uint64_t first_faulty_cycle) const {
  // A corrupted-then-reprogrammed configuration cannot be replayed
  // statically: bail on later writes to the MPU configuration/status page
  // (region registers, sticky flag, control). Writes to other device
  // registers (e.g. the DMA engine) do not touch the corrupted policy.
  for (const rtl::AccessRecord& a : golden_->accesses()) {
    if (a.cycle >= first_faulty_cycle && a.is_device && a.is_write &&
        a.addr <= rtl::kMpuEnableAddr) {
      return std::nullopt;
    }
  }
  // Corrupted DMA registers change which addresses the engine touches; the
  // recorded trace and attack path assume the golden ones.
  {
    const rtl::ArchState& ref =
        golden_->state_at(std::min(first_faulty_cycle, golden_->length()));
    if (faulty.dma_src != ref.dma_src || faulty.dma_dst != ref.dma_dst ||
        faulty.dma_len != ref.dma_len ||
        faulty.dma_active != ref.dma_active) {
      return std::nullopt;
    }
  }
  // An already-set sticky flag survives to the oracle check (no device write
  // after the fault can clear it — verified above).
  if (faulty.viol_sticky) return false;

  const bool exec_kind =
      bench_->kind == soc::SecurityBenchmark::Kind::kIllegalExecute;
  if (exec_kind && bench_->attack_path.empty()) {
    return std::nullopt;  // cannot reconstruct the post-Tt trajectory
  }
  // For control-flow-changing attacks, the golden trajectory is only valid
  // before the target cycle; past it, the benchmark's attack_path describes
  // the successful run. A fault landing after Tt is too late (the denied
  // access already happened under the golden configuration).
  if (exec_kind && first_faulty_cycle > target_cycle_) return false;
  const std::uint64_t replay_end =
      exec_kind ? target_cycle_ : golden_->length();

  // Data accesses along the golden trajectory. DMA accesses additionally
  // treat the device page as denied (the engine may not touch it).
  bool illegal_seen = false;
  for (const rtl::AccessRecord& a : golden_->accesses()) {
    if (a.cycle < first_faulty_cycle || a.is_device) continue;
    if (a.cycle >= replay_end) break;  // records are in cycle order
    const bool allowed =
        Machine::mpu_allows(faulty, a.addr, a.is_write) &&
        (!a.is_dma || a.addr < rtl::kDeviceBase);
    if (!exec_kind && a.cycle == target_cycle_) {
      illegal_seen = true;
      if (!allowed) return false;  // still blocked and detected
    } else if (!allowed) {
      return false;  // a legitimate access now violates: attack exposed
    }
  }

  // Instruction fetches along the golden trajectory (paper Fig. 1's second
  // check path). Only needed when the faulty configuration checks fetches;
  // a single denial squashes execution and trips the sticky flag.
  if (faulty.mpu_enable && faulty.instr_check) {
    for (std::uint64_t c = first_faulty_cycle; c < replay_end; ++c) {
      if (!Machine::mpu_allows_exec(faulty, golden_->pc_at(c))) return false;
    }
  }

  // The attack path (accesses only the *successful* trajectory performs)
  // must be fully permitted. For kIllegalExecute it is the hidden routine;
  // other benchmarks may use it too (e.g. the DMA transfer the golden run
  // aborted at the target cycle).
  for (const auto& p : bench_->attack_path) {
    const bool ok = p.is_fetch
                        ? Machine::mpu_allows_exec(faulty, p.addr)
                        : Machine::mpu_allows(faulty, p.addr, p.is_write);
    if (!ok) return false;
  }
  if (exec_kind) return true;

  if (!illegal_seen) {
    // Fault landed after the target cycle: the illegal access already
    // executed (and was denied) under the golden configuration.
    return false;
  }
  return true;
}

}  // namespace fav::mc
