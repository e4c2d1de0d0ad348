#include "rtl/golden.h"

#include <algorithm>

namespace fav::rtl {

GoldenRun::GoldenRun(const Program& program, std::uint64_t max_cycles,
                     std::uint64_t checkpoint_interval)
    : program_(&program) {
  FAV_ENSURE(checkpoint_interval > 0);
  Machine m(program);

  states_.push_back(m.state());
  checkpoints_.push_back({0, m.state(), m.ram()});

  std::uint64_t cycle = 0;
  while (cycle < max_cycles && !m.halted()) {
    const StepInfo info = m.step();
    ++cycle;
    viol_trace_.push_back(info.mpu_viol);
    if (info.mem_read || info.mem_write) {
      accesses_.push_back({cycle - 1, info.mem_addr, info.mem_write,
                           info.mem_addr >= kDeviceBase, false});
    }
    if (info.dma_read) {
      // Record both halves of the attempted transfer (the MPU checks them
      // as a pair before any data moves).
      accesses_.push_back({cycle - 1, info.dma_addr_src, false, false, true});
      accesses_.push_back({cycle - 1, info.dma_addr_dst, true, false, true});
    }
    states_.push_back(m.state());
    if (cycle % checkpoint_interval == 0 && !m.halted()) {
      checkpoints_.push_back({cycle, m.state(), m.ram()});
    }
  }
  length_ = cycle;
  final_state_ = m.state();
  final_ram_ = m.ram();
}

const ArchState& GoldenRun::state_at(std::uint64_t cycle) const {
  FAV_ENSURE_MSG(cycle <= length_, "cycle " << cycle << " beyond golden run");
  return states_[cycle];
}

std::uint16_t GoldenRun::pc_at(std::uint64_t cycle) const {
  return state_at(cycle).pc;
}

bool GoldenRun::viol_at(std::uint64_t cycle) const {
  FAV_ENSURE_MSG(cycle < length_, "cycle " << cycle << " beyond golden run");
  return viol_trace_.test(cycle);
}

std::optional<std::uint64_t> GoldenRun::first_violation_cycle() const {
  for (std::uint64_t c = 0; c < length_; ++c) {
    if (viol_trace_.test(c)) return c;
  }
  return std::nullopt;
}

const Checkpoint& GoldenRun::nearest_checkpoint(std::uint64_t cycle) const {
  // Checkpoints are recorded in ascending cycle order; binary-search the
  // last one at or before `cycle`. The first checkpoint is at cycle 0.
  const auto it = std::upper_bound(
      checkpoints_.begin(), checkpoints_.end(), cycle,
      [](std::uint64_t c, const Checkpoint& cp) { return c < cp.cycle; });
  return it == checkpoints_.begin() ? checkpoints_.front() : *std::prev(it);
}

std::uint64_t GoldenRun::restore_byte_size() const {
  const auto state_bytes = static_cast<std::uint64_t>(
      (Machine::reg_map().total_bits() + 7) / 8);
  const std::uint64_t ram_bytes = (1ull << 16) * sizeof(std::uint16_t);
  return state_bytes + ram_bytes;
}

Machine GoldenRun::restore(std::uint64_t cycle,
                           std::uint64_t* warmup_cycles) const {
  Machine m(*program_);
  restore_into(m, cycle, warmup_cycles);
  return m;
}

void GoldenRun::restore_into(Machine& m, std::uint64_t cycle,
                             std::uint64_t* warmup_cycles) const {
  FAV_ENSURE_MSG(cycle <= length_, "cycle " << cycle << " beyond golden run");
  FAV_ENSURE_MSG(&m.program() == program_,
                "machine was built for a different program");
  const Checkpoint& cp = nearest_checkpoint(cycle);
  m.set_state(cp.state);
  m.mutable_ram() = cp.ram;  // copy-assign reuses the machine's RAM buffer
  m.set_cycle(cp.cycle);
  const std::uint64_t warmup = cycle - cp.cycle;
  for (std::uint64_t i = 0; i < warmup; ++i) m.step();
  if (warmup_cycles != nullptr) *warmup_cycles = warmup;
}

}  // namespace fav::rtl
