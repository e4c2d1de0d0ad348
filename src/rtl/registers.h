// Architectural register state of MCU16 and its canonical flat bit order.
//
// The RegisterMap defines a single, stable enumeration of every sequential
// bit in the design. The behavioural model, the gate-level netlist (whose
// DFFs are bound 1:1 to these bits by soc::SocNetlist), checkpoints, fault
// injection, and the pre-characterization all address state through this map,
// which is what makes the cross-level hand-off of the paper's Fig. 5 exact.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "rtl/isa.h"
#include "util/bitvector.h"
#include "util/check.h"

namespace fav::rtl {

struct MpuRegion {
  std::uint16_t base = 0;
  std::uint16_t limit = 0;
  std::uint8_t perm = 0;  // kPermRead | kPermWrite | kPermEnable

  bool operator==(const MpuRegion&) const = default;
};

/// Complete sequential state of MCU16 (everything a checkpoint captures,
/// other than RAM contents).
struct ArchState {
  std::uint16_t pc = 0;
  std::array<std::uint16_t, 8> regs{};
  std::array<MpuRegion, kMpuRegionCount> mpu{};
  bool mpu_enable = false;
  bool instr_check = false;  // instruction access check (needs mpu_enable)
  bool viol_sticky = false;
  std::uint16_t viol_addr = 0;
  bool halted = false;
  // DMA engine (peripheral bus master).
  std::uint16_t dma_src = 0;
  std::uint16_t dma_dst = 0;
  std::uint16_t dma_len = 0;
  bool dma_active = false;

  bool operator==(const ArchState&) const = default;
};

/// One named register field in the canonical order.
struct RegisterField {
  std::string name;
  int width = 0;
  int offset = 0;  // flat bit offset of bit 0
  /// True for fields the ISA only writes during configuration or on rare
  /// events — the fields expected (but not assumed!) to characterize as
  /// memory-type. Pre-characterization measures this empirically; the flag
  /// exists only so tests can compare measurement against expectation.
  bool config_like = false;
};

class RegisterMap {
 public:
  /// The canonical map for MCU16.
  static const RegisterMap& mcu16();

  int total_bits() const { return total_bits_; }
  const std::vector<RegisterField>& fields() const { return fields_; }
  const RegisterField& field(int index) const;
  int field_index(const std::string& name) const;

  /// Maps a flat bit position to (field index, bit within field).
  std::pair<int, int> locate(int flat_bit) const;

  /// --- field accessors on ArchState -----------------------------------
  std::uint32_t get_field(const ArchState& s, int field_index) const;
  void set_field(ArchState& s, int field_index, std::uint32_t value) const;

  bool get_bit(const ArchState& s, int flat_bit) const;
  void set_bit(ArchState& s, int flat_bit, bool value) const;
  void flip_bit(ArchState& s, int flat_bit) const;

  /// Bit f of the result is set when field f differs between `a` and `b`
  /// (values masked to the field's width, as pack() stores them): the
  /// field-level view of pack(a) ^ pack(b) without building either.
  std::uint64_t diff_fields(const ArchState& a, const ArchState& b) const;

  /// Packs / unpacks the whole state into the canonical BitVector layout.
  BitVector pack(const ArchState& s) const;
  ArchState unpack(const BitVector& bits) const;

 private:
  RegisterMap();

  std::vector<RegisterField> fields_;
  std::vector<int> bit_to_field_;  // flat bit -> field index
  std::vector<std::uint32_t> field_masks_;  // (1 << width) - 1 per field
  int total_bits_ = 0;
};

}  // namespace fav::rtl
