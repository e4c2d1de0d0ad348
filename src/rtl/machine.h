// Behavioural (RTL-level) cycle-accurate model of MCU16.
//
// This plays the role of the commercial RTL simulator in the paper's flow:
// fast golden runs, checkpoint restart, and post-injection resumption all
// execute here. Every architectural register is addressable through
// RegisterMap so bit errors can be written back from the gate level
// ("restore RTL-level simulation" step of Fig. 5).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/check.h"

#include "rtl/isa.h"
#include "rtl/registers.h"

namespace fav::rtl {

/// A benchmark image: instruction ROM plus initial RAM contents.
struct Program {
  std::vector<std::uint16_t> rom;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ram_init;
  /// Label addresses from the assembler (for tooling and benchmarks).
  std::vector<std::pair<std::string, std::uint16_t>> labels;

  std::uint16_t label(const std::string& name) const {
    for (const auto& [n, addr] : labels) {
      if (n == name) return addr;
    }
    FAV_ENSURE_MSG(false, "no label named '" << name << "'");
    return 0;
  }

  std::uint16_t fetch(std::uint16_t pc) const {
    return pc < rom.size() ? rom[pc] : encode_nop();
  }
};

/// 64K x 16 word-addressed RAM with an optional write log. While the log
/// is on, every write first records the word it overwrites, so rollback()
/// can return the RAM to the image it had when the log started without
/// copying 128 KB: one restored machine then serves many resumptions from
/// the same cycle (register characterization, the engine's RTL lanes).
/// Copies and assignments take the words only and leave the log off;
/// equality compares the words only.
class Memory {
 public:
  Memory() : words_(1 << 16, 0) {}
  Memory(const Memory& other) : words_(other.words_) {}
  Memory(Memory&& other) noexcept : words_(std::move(other.words_)) {}
  Memory& operator=(const Memory& other) {
    words_ = other.words_;  // copy-assign reuses this RAM's buffer
    drop_log();
    return *this;
  }
  Memory& operator=(Memory&& other) noexcept {
    words_ = std::move(other.words_);
    drop_log();
    return *this;
  }

  std::uint16_t read(std::uint16_t addr) const { return words_[addr]; }
  void write(std::uint16_t addr, std::uint16_t value) {
    if (logging_) log_.emplace_back(addr, words_[addr]);
    words_[addr] = value;
  }

  /// Starts an empty write log at the current image.
  void start_log() {
    log_.clear();
    logging_ = true;
  }
  /// Undoes every logged write, newest first, and empties the log, which
  /// stays on: the RAM is back at the image start_log() saw.
  void rollback() {
    for (auto it = log_.rbegin(); it != log_.rend(); ++it) {
      words_[it->first] = it->second;
    }
    log_.clear();
  }
  bool logging() const { return logging_; }
  /// Writes logged since start_log() or the last rollback().
  std::size_t logged_writes() const { return log_.size(); }

  bool operator==(const Memory& other) const { return words_ == other.words_; }

 private:
  void drop_log() {
    log_.clear();
    logging_ = false;
  }

  std::vector<std::uint16_t> words_;
  bool logging_ = false;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> log_;  // (addr, old)
};

/// Everything observable about one executed cycle; used by tests, the
/// equivalence harness, and the attack-success oracles.
struct StepInfo {
  Instr instr{};      // the fetched word (even when the fetch was denied)
  bool fetch_denied = false;
  bool mem_read = false;
  bool mem_write = false;       // request, before MPU squashing
  bool mem_write_done = false;  // write actually performed
  std::uint16_t mem_addr = 0;
  std::uint16_t mem_wdata = 0;
  std::uint16_t mem_rdata = 0;
  /// The responding signal: a checked access (core data, instruction fetch,
  /// or DMA) was denied this cycle. dma_viol/fetch_denied attribute the
  /// source.
  bool mpu_viol = false;
  /// DMA (peripheral) activity this cycle.
  bool dma_read = false;        // transfer attempted a read of dma_addr_src
  bool dma_write_done = false;  // transfer wrote dma_addr_dst
  bool dma_viol = false;        // a DMA access was denied (aborts the DMA)
  std::uint16_t dma_addr_src = 0;
  std::uint16_t dma_addr_dst = 0;
};

class Machine {
 public:
  explicit Machine(const Program& program);
  /// Machine keeps a reference to the program: temporaries would dangle.
  explicit Machine(Program&&) = delete;

  /// Resets architectural state and reloads initial RAM.
  void reset();

  /// Executes one cycle (no-op once halted, except the cycle counter).
  StepInfo step();
  /// Runs up to `cycles` cycles; stops early on halt. Returns cycles run.
  std::uint64_t run(std::uint64_t cycles);

  const ArchState& state() const { return state_; }
  ArchState& mutable_state() { return state_; }
  void set_state(const ArchState& s) { state_ = s; }

  const Memory& ram() const { return ram_; }
  Memory& mutable_ram() { return ram_; }

  std::uint64_t cycle() const { return cycle_; }
  void set_cycle(std::uint64_t c) { cycle_ = c; }
  bool halted() const { return state_.halted; }

  const Program& program() const { return *program_; }
  static const RegisterMap& reg_map() { return RegisterMap::mcu16(); }

  /// Pure MPU policy check (also used by the analytical evaluator in mc/):
  /// does `state` permit the given data access? Device-page addresses are
  /// never checked.
  static bool mpu_allows(const ArchState& state, std::uint16_t addr,
                         bool is_write);
  /// Instruction-fetch check: trivially true unless both the MPU and the
  /// instruction access check are enabled.
  static bool mpu_allows_exec(const ArchState& state, std::uint16_t pc);

 private:
  std::uint16_t device_read(std::uint16_t addr) const;
  void device_write(std::uint16_t addr, std::uint16_t value);

  const Program* program_;
  ArchState state_;
  Memory ram_;
  std::uint64_t cycle_ = 0;
};

}  // namespace fav::rtl
