// Dynamic bit vector with bit-parallel (64-bit word) operations.
//
// BitVector is the workhorse behind switching signatures (Section 4 of the
// paper): per-cycle switch/no-switch bits are packed into words so that the
// bit-flip correlation |ss(g) & (ss(rs) << i)| / |ss(g)| reduces to a handful
// of word-wise AND + popcount operations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fav {

class BitVector {
 public:
  BitVector() = default;
  /// Creates a vector of `size` bits, all initialized to `value`.
  explicit BitVector(std::size_t size, bool value = false);
  /// Parses a string of '0'/'1' characters; index 0 is the leftmost char.
  static BitVector from_string(const std::string& bits);
  /// Rebuilds a vector from its raw word storage (see words()); bits beyond
  /// `size` in the last word are cleared. The word count must match `size`.
  static BitVector from_words(std::vector<std::uint64_t> words,
                              std::size_t size);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool test(std::size_t i) const;
  void set(std::size_t i, bool value);
  /// Appends one bit at the end.
  void push_back(bool value);
  /// Grows or shrinks to `size` bits; new bits are zero.
  void resize(std::size_t size);
  /// Pre-allocates capacity for `size` bits without changing the size, so a
  /// push_back loop of known length (e.g. one signature bit per simulated
  /// cycle) performs no intermediate word reallocations.
  void reserve(std::size_t size);
  /// Sets all bits to zero without changing the size.
  void clear_all();

  /// Number of set bits (the `|·|` / hamming-weight operator of the paper).
  std::size_t count() const;
  bool any() const { return count() > 0; }
  bool none() const { return count() == 0; }

  /// Word-wise logical ops; both operands must have equal size.
  BitVector& operator&=(const BitVector& rhs);
  BitVector& operator|=(const BitVector& rhs);
  BitVector& operator^=(const BitVector& rhs);
  friend BitVector operator&(BitVector lhs, const BitVector& rhs) { return lhs &= rhs; }
  friend BitVector operator|(BitVector lhs, const BitVector& rhs) { return lhs |= rhs; }
  friend BitVector operator^(BitVector lhs, const BitVector& rhs) { return lhs ^= rhs; }

  /// Logical shift towards lower indices: result[i] = (*this)[i + n]
  /// (matches the paper's `ss(rs) << i`, which aligns cycle i+k of the
  /// responding signal with cycle k of the unrolled node). Vacated high
  /// bits are zero; size is preserved.
  BitVector shifted_down(std::size_t n) const;
  /// Logical shift towards higher indices: result[i + n] = (*this)[i].
  BitVector shifted_up(std::size_t n) const;

  /// Popcount of (*this & rhs) without materializing the intermediate.
  std::size_t and_count(const BitVector& rhs) const;

  bool operator==(const BitVector& rhs) const;
  bool operator!=(const BitVector& rhs) const { return !(*this == rhs); }

  /// '0'/'1' rendering, index 0 first.
  std::string to_string() const;

  /// Indices of set bits, ascending.
  std::vector<std::size_t> set_bits() const;

  /// Raw 64-bit word storage (little-endian bit order within each word),
  /// for serialization; pair with size() and rebuild via from_words().
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  static constexpr std::size_t kWordBits = 64;
  static std::size_t word_count(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }
  /// Zeroes bits beyond size_ in the last word (invariant after every op).
  void trim();

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace fav
