#include "util/bitvector.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace fav {
namespace {

TEST(BitVector, DefaultIsEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.count(), 0u);
}

TEST(BitVector, ConstructAllZero) {
  BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVector, ConstructAllOne) {
  BitVector v(130, true);
  EXPECT_EQ(v.count(), 130u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_TRUE(v.test(i));
}

TEST(BitVector, SetGet) {
  BitVector v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(99));
  EXPECT_FALSE(v.test(1));
  EXPECT_EQ(v.count(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.count(), 3u);
}

TEST(BitVector, OutOfRangeThrows) {
  BitVector v(8);
  EXPECT_THROW(v.test(8), CheckError);
  EXPECT_THROW(v.set(8, true), CheckError);
}

TEST(BitVector, FromStringRoundTrip) {
  const std::string s = "01001101";
  BitVector v = BitVector::from_string(s);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.count(), 4u);
}

TEST(BitVector, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVector::from_string("01x"), CheckError);
}

TEST(BitVector, PushBack) {
  BitVector v;
  for (int i = 0; i < 70; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 70u);
  for (int i = 0; i < 70; ++i) {
    EXPECT_EQ(v.test(static_cast<std::size_t>(i)), i % 3 == 0) << i;
  }
}

TEST(BitVector, ResizeShrinkClearsHighBits) {
  BitVector v(70, true);
  v.resize(10);
  EXPECT_EQ(v.count(), 10u);
  v.resize(70);
  EXPECT_EQ(v.count(), 10u);  // regrown bits must be zero
}

TEST(BitVector, AndOrXor) {
  const auto a = BitVector::from_string("1100");
  const auto b = BitVector::from_string("1010");
  EXPECT_EQ((a & b).to_string(), "1000");
  EXPECT_EQ((a | b).to_string(), "1110");
  EXPECT_EQ((a ^ b).to_string(), "0110");
}

TEST(BitVector, SizeMismatchThrows) {
  BitVector a(4), b(5);
  EXPECT_THROW(a &= b, CheckError);
  EXPECT_THROW(a.and_count(b), CheckError);
}

TEST(BitVector, PaperCorrelationExample) {
  // The worked example from Section 4 of the paper:
  // Corr_0(g1, rs) = |00101101 & (01001101 << 0)| / |00101101| = 3/4.
  const auto ss_g1 = BitVector::from_string("00101101");
  const auto ss_rs = BitVector::from_string("01001101");
  EXPECT_EQ(ss_g1.and_count(ss_rs.shifted_down(0)), 3u);
  EXPECT_EQ(ss_g1.count(), 4u);

  // Corr_0(g2, rs) = |01100111 & 01001101| / |01100111| = 3/5.
  const auto ss_g2 = BitVector::from_string("01100111");
  EXPECT_EQ(ss_g2.and_count(ss_rs), 3u);
  EXPECT_EQ(ss_g2.count(), 5u);

  // Corr_1(g3, rs) = |01001111 & (01001101 << 1)| / |01001111| = 2/5.
  const auto ss_g3 = BitVector::from_string("01001111");
  EXPECT_EQ(ss_g3.and_count(ss_rs.shifted_down(1)), 2u);
  EXPECT_EQ(ss_g3.count(), 5u);
}

TEST(BitVector, ShiftedDownBasic) {
  const auto v = BitVector::from_string("10110001");
  EXPECT_EQ(v.shifted_down(0).to_string(), "10110001");
  EXPECT_EQ(v.shifted_down(1).to_string(), "01100010");
  EXPECT_EQ(v.shifted_down(3).to_string(), "10001000");
  EXPECT_EQ(v.shifted_down(8).to_string(), "00000000");
  EXPECT_EQ(v.shifted_down(100).to_string(), "00000000");
}

TEST(BitVector, ShiftedUpBasic) {
  const auto v = BitVector::from_string("10110001");
  EXPECT_EQ(v.shifted_up(0).to_string(), "10110001");
  EXPECT_EQ(v.shifted_up(1).to_string(), "01011000");
  EXPECT_EQ(v.shifted_up(100).to_string(), "00000000");
}

TEST(BitVector, ShiftCrossesWordBoundary) {
  BitVector v(130);
  v.set(127, true);
  v.set(128, true);
  const auto down = v.shifted_down(65);
  EXPECT_TRUE(down.test(62));
  EXPECT_TRUE(down.test(63));
  EXPECT_EQ(down.count(), 2u);
  const auto up = down.shifted_up(65);
  EXPECT_TRUE(up.test(127));
  EXPECT_TRUE(up.test(128));
  EXPECT_EQ(up.count(), 2u);
}

TEST(BitVector, ShiftUpDropsBitsBeyondSize) {
  BitVector v(10);
  v.set(9, true);
  EXPECT_EQ(v.shifted_up(1).count(), 0u);
}

TEST(BitVector, AndCountMatchesMaterialized) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_below(300);
    BitVector a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, rng.bernoulli(0.5));
      b.set(i, rng.bernoulli(0.5));
    }
    EXPECT_EQ(a.and_count(b), (a & b).count());
  }
}

TEST(BitVector, SetBitsAscending) {
  BitVector v(200);
  v.set(3, true);
  v.set(64, true);
  v.set(199, true);
  const auto bits = v.set_bits();
  ASSERT_EQ(bits.size(), 3u);
  EXPECT_EQ(bits[0], 3u);
  EXPECT_EQ(bits[1], 64u);
  EXPECT_EQ(bits[2], 199u);
}

TEST(BitVector, EqualityIgnoresNothing) {
  auto a = BitVector::from_string("1010");
  auto b = BitVector::from_string("1010");
  EXPECT_EQ(a, b);
  b.set(0, false);
  EXPECT_NE(a, b);
  BitVector c(5);
  EXPECT_NE(BitVector(4), c);  // size matters
}

// Property: shifting down by i then counting overlap equals a manual loop.
class BitVectorShiftProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorShiftProperty, ShiftDownMatchesNaive) {
  const std::size_t shift = GetParam();
  Rng rng(shift * 977 + 5);
  const std::size_t n = 257;
  BitVector v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.bernoulli(0.4));
  const BitVector s = v.shifted_down(shift);
  for (std::size_t i = 0; i < n; ++i) {
    const bool expect = (i + shift < n) ? v.test(i + shift) : false;
    EXPECT_EQ(s.test(i), expect) << "shift " << shift << " bit " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shifts, BitVectorShiftProperty,
                         ::testing::Values(0, 1, 7, 63, 64, 65, 128, 200, 256,
                                           257, 1000));

}  // namespace
}  // namespace fav
