#include "rtl/registers.h"

namespace fav::rtl {

RegisterMap::RegisterMap() {
  auto add = [this](std::string name, int width, bool config_like) {
    fields_.push_back({std::move(name), width, total_bits_, config_like});
    for (int b = 0; b < width; ++b) {
      bit_to_field_.push_back(static_cast<int>(fields_.size()) - 1);
    }
    total_bits_ += width;
  };

  add("pc", 16, false);
  for (int r = 0; r < 8; ++r) add("r" + std::to_string(r), 16, false);
  for (int k = 0; k < kMpuRegionCount; ++k) {
    const std::string p = "mpu" + std::to_string(k) + "_";
    add(p + "base", 16, true);
    add(p + "limit", 16, true);
    add(p + "perm", kPermBits, true);
  }
  add("mpu_enable", 1, true);
  add("instr_check", 1, true);
  add("viol_sticky", 1, true);
  add("viol_addr", 16, true);
  add("halted", 1, false);
  add("dma_src", 16, false);
  add("dma_dst", 16, false);
  add("dma_len", 16, false);
  add("dma_active", 1, false);
}

const RegisterMap& RegisterMap::mcu16() {
  static const RegisterMap map;
  return map;
}

const RegisterField& RegisterMap::field(int index) const {
  FAV_ENSURE_MSG(index >= 0 && index < static_cast<int>(fields_.size()),
                "field index " << index << " out of range");
  return fields_[static_cast<std::size_t>(index)];
}

int RegisterMap::field_index(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  FAV_ENSURE_MSG(false, "no register field named '" << name << "'");
  return -1;
}

std::pair<int, int> RegisterMap::locate(int flat_bit) const {
  FAV_ENSURE_MSG(flat_bit >= 0 && flat_bit < total_bits_,
                "flat bit " << flat_bit << " out of range " << total_bits_);
  const int fi = bit_to_field_[static_cast<std::size_t>(flat_bit)];
  return {fi, flat_bit - fields_[static_cast<std::size_t>(fi)].offset};
}

std::uint32_t RegisterMap::get_field(const ArchState& s, int field_index) const {
  const RegisterField& f = field(field_index);
  // Field order must match the constructor: pc, r0..r7, 4x(base,limit,perm),
  // mpu_enable, viol_sticky, viol_addr, halted.
  int idx = field_index;
  if (idx == 0) return s.pc;
  --idx;
  if (idx < 8) return s.regs[static_cast<std::size_t>(idx)];
  idx -= 8;
  if (idx < 3 * kMpuRegionCount) {
    const auto& region = s.mpu[static_cast<std::size_t>(idx / 3)];
    switch (idx % 3) {
      case 0: return region.base;
      case 1: return region.limit;
      default: return region.perm;
    }
  }
  idx -= 3 * kMpuRegionCount;
  switch (idx) {
    case 0: return s.mpu_enable ? 1u : 0u;
    case 1: return s.instr_check ? 1u : 0u;
    case 2: return s.viol_sticky ? 1u : 0u;
    case 3: return s.viol_addr;
    case 4: return s.halted ? 1u : 0u;
    case 5: return s.dma_src;
    case 6: return s.dma_dst;
    case 7: return s.dma_len;
    case 8: return s.dma_active ? 1u : 0u;
  }
  FAV_ENSURE_MSG(false, "unhandled field '" << f.name << "'");
  return 0;
}

void RegisterMap::set_field(ArchState& s, int field_index,
                            std::uint32_t value) const {
  const RegisterField& f = field(field_index);
  const std::uint32_t mask =
      f.width >= 32 ? ~0u : ((1u << f.width) - 1u);
  value &= mask;
  int idx = field_index;
  if (idx == 0) {
    s.pc = static_cast<std::uint16_t>(value);
    return;
  }
  --idx;
  if (idx < 8) {
    s.regs[static_cast<std::size_t>(idx)] = static_cast<std::uint16_t>(value);
    return;
  }
  idx -= 8;
  if (idx < 3 * kMpuRegionCount) {
    auto& region = s.mpu[static_cast<std::size_t>(idx / 3)];
    switch (idx % 3) {
      case 0: region.base = static_cast<std::uint16_t>(value); return;
      case 1: region.limit = static_cast<std::uint16_t>(value); return;
      default: region.perm = static_cast<std::uint8_t>(value); return;
    }
  }
  idx -= 3 * kMpuRegionCount;
  switch (idx) {
    case 0: s.mpu_enable = value != 0; return;
    case 1: s.instr_check = value != 0; return;
    case 2: s.viol_sticky = value != 0; return;
    case 3: s.viol_addr = static_cast<std::uint16_t>(value); return;
    case 4: s.halted = value != 0; return;
    case 5: s.dma_src = static_cast<std::uint16_t>(value); return;
    case 6: s.dma_dst = static_cast<std::uint16_t>(value); return;
    case 7: s.dma_len = static_cast<std::uint16_t>(value); return;
    case 8: s.dma_active = value != 0; return;
  }
  FAV_ENSURE_MSG(false, "unhandled field '" << f.name << "'");
}

bool RegisterMap::get_bit(const ArchState& s, int flat_bit) const {
  const auto [fi, bit] = locate(flat_bit);
  return (get_field(s, fi) >> bit) & 1u;
}

void RegisterMap::set_bit(ArchState& s, int flat_bit, bool value) const {
  const auto [fi, bit] = locate(flat_bit);
  std::uint32_t v = get_field(s, fi);
  if (value) {
    v |= 1u << bit;
  } else {
    v &= ~(1u << bit);
  }
  set_field(s, fi, v);
}

void RegisterMap::flip_bit(ArchState& s, int flat_bit) const {
  set_bit(s, flat_bit, !get_bit(s, flat_bit));
}

BitVector RegisterMap::pack(const ArchState& s) const {
  BitVector bits(static_cast<std::size_t>(total_bits_));
  for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
    const std::uint32_t v = get_field(s, static_cast<int>(fi));
    for (int b = 0; b < fields_[fi].width; ++b) {
      if ((v >> b) & 1u) {
        bits.set(static_cast<std::size_t>(fields_[fi].offset + b), true);
      }
    }
  }
  return bits;
}

ArchState RegisterMap::unpack(const BitVector& bits) const {
  FAV_ENSURE_MSG(bits.size() == static_cast<std::size_t>(total_bits_),
                "bit vector size mismatch");
  ArchState s;
  for (std::size_t fi = 0; fi < fields_.size(); ++fi) {
    std::uint32_t v = 0;
    for (int b = 0; b < fields_[fi].width; ++b) {
      if (bits.test(static_cast<std::size_t>(fields_[fi].offset + b))) {
        v |= 1u << b;
      }
    }
    set_field(s, static_cast<int>(fi), v);
  }
  return s;
}

}  // namespace fav::rtl
