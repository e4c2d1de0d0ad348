#include "rtl/registers.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace fav::rtl {
namespace {

TEST(RegisterMap, TotalBits) {
  const RegisterMap& map = RegisterMap::mcu16();
  // pc(16) + 8x16 + 4x(16+16+4) + enable(1) + instr_check(1) + sticky(1) +
  // viol_addr(16) + halted(1) + dma(16+16+16+1) = 357.
  EXPECT_EQ(map.total_bits(), 357);
}

TEST(RegisterMap, FieldLookupByName) {
  const RegisterMap& map = RegisterMap::mcu16();
  EXPECT_EQ(map.field(map.field_index("pc")).width, 16);
  EXPECT_EQ(map.field(map.field_index("mpu2_perm")).width, kPermBits);
  EXPECT_EQ(map.field(map.field_index("halted")).width, 1);
  EXPECT_THROW(map.field_index("bogus"), CheckError);
}

TEST(RegisterMap, OffsetsAreContiguous) {
  const RegisterMap& map = RegisterMap::mcu16();
  int expected = 0;
  for (const auto& f : map.fields()) {
    EXPECT_EQ(f.offset, expected) << f.name;
    expected += f.width;
  }
  EXPECT_EQ(expected, map.total_bits());
}

TEST(RegisterMap, ConfigLikeFlags) {
  const RegisterMap& map = RegisterMap::mcu16();
  EXPECT_FALSE(map.field(map.field_index("pc")).config_like);
  EXPECT_FALSE(map.field(map.field_index("r3")).config_like);
  EXPECT_TRUE(map.field(map.field_index("mpu0_base")).config_like);
  EXPECT_TRUE(map.field(map.field_index("viol_addr")).config_like);
  EXPECT_FALSE(map.field(map.field_index("halted")).config_like);
}

TEST(RegisterMap, GetSetField) {
  const RegisterMap& map = RegisterMap::mcu16();
  ArchState s;
  map.set_field(s, map.field_index("r5"), 0xABCD);
  EXPECT_EQ(s.regs[5], 0xABCD);
  EXPECT_EQ(map.get_field(s, map.field_index("r5")), 0xABCDu);

  map.set_field(s, map.field_index("mpu1_limit"), 0x4FFF);
  EXPECT_EQ(s.mpu[1].limit, 0x4FFF);

  map.set_field(s, map.field_index("mpu3_perm"), 0xFF);  // masked to width
  EXPECT_EQ(s.mpu[3].perm, 15);

  map.set_field(s, map.field_index("halted"), 1);
  EXPECT_TRUE(s.halted);
  map.set_field(s, map.field_index("viol_sticky"), 1);
  EXPECT_TRUE(s.viol_sticky);
  map.set_field(s, map.field_index("mpu_enable"), 1);
  EXPECT_TRUE(s.mpu_enable);
  map.set_field(s, map.field_index("instr_check"), 1);
  EXPECT_TRUE(s.instr_check);
}

TEST(RegisterMap, LocateRoundTrip) {
  const RegisterMap& map = RegisterMap::mcu16();
  for (int bit = 0; bit < map.total_bits(); ++bit) {
    const auto [fi, b] = map.locate(bit);
    EXPECT_EQ(map.field(fi).offset + b, bit);
    EXPECT_LT(b, map.field(fi).width);
  }
  EXPECT_THROW(map.locate(-1), CheckError);
  EXPECT_THROW(map.locate(map.total_bits()), CheckError);
}

TEST(RegisterMap, BitAccess) {
  const RegisterMap& map = RegisterMap::mcu16();
  ArchState s;
  const int pc_bit3 = map.field(map.field_index("pc")).offset + 3;
  map.set_bit(s, pc_bit3, true);
  EXPECT_EQ(s.pc, 8);
  EXPECT_TRUE(map.get_bit(s, pc_bit3));
  map.flip_bit(s, pc_bit3);
  EXPECT_EQ(s.pc, 0);
}

TEST(RegisterMap, PackUnpackRoundTrip) {
  const RegisterMap& map = RegisterMap::mcu16();
  fav::Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    ArchState s;
    for (int fi = 0; fi < static_cast<int>(map.fields().size()); ++fi) {
      map.set_field(s, fi, static_cast<std::uint32_t>(rng.next()));
    }
    const BitVector bits = map.pack(s);
    EXPECT_EQ(bits.size(), static_cast<std::size_t>(map.total_bits()));
    const ArchState back = map.unpack(bits);
    EXPECT_EQ(back, s);
  }
}

TEST(RegisterMap, PackDiffersAfterSingleFlip) {
  const RegisterMap& map = RegisterMap::mcu16();
  ArchState a, b;
  map.flip_bit(b, 100);
  const BitVector pa = map.pack(a);
  const BitVector pb = map.pack(b);
  EXPECT_EQ((pa ^ pb).count(), 1u);
  EXPECT_TRUE((pa ^ pb).test(100));
}

TEST(RegisterMap, DiffFieldsMatchesPackedXor) {
  // diff_fields reads the members in its own copy of the field order; it
  // must agree with the fields of the packed states' differing bits.
  const RegisterMap& map = RegisterMap::mcu16();
  fav::Rng rng(47);
  for (int trial = 0; trial < 200; ++trial) {
    ArchState a;
    for (int fi = 0; fi < static_cast<int>(map.fields().size()); ++fi) {
      map.set_field(a, fi, static_cast<std::uint32_t>(rng.next()));
    }
    ArchState b = a;
    const int flips = 1 + static_cast<int>(rng.uniform_below(3));
    for (int k = 0; k < flips; ++k) {
      map.flip_bit(b, static_cast<int>(rng.uniform_below(
                          static_cast<std::uint64_t>(map.total_bits()))));
    }
    std::uint64_t want = 0;
    for (const std::size_t bit : (map.pack(a) ^ map.pack(b)).set_bits()) {
      want |= std::uint64_t{1} << map.locate(static_cast<int>(bit)).first;
    }
    EXPECT_EQ(map.diff_fields(a, b), want) << trial;
    EXPECT_EQ(map.diff_fields(b, a), want) << trial;
    EXPECT_EQ(map.diff_fields(a, a), 0u);
  }
  // Bits above a field's width are not state: pack drops them, and so
  // does the diff.
  ArchState a, b;
  b.mpu[2].perm = static_cast<std::uint8_t>(1u << kPermBits);
  EXPECT_EQ(map.diff_fields(a, b), 0u);
  b.mpu[2].perm |= 1u;
  EXPECT_EQ(map.diff_fields(a, b),
            std::uint64_t{1} << map.field_index("mpu2_perm"));
}

TEST(RegisterMap, UnpackWrongSizeThrows) {
  EXPECT_THROW(RegisterMap::mcu16().unpack(BitVector(10)), CheckError);
}

}  // namespace
}  // namespace fav::rtl
