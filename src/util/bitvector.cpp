#include "util/bitvector.h"

#include <bit>

#include "util/check.h"

namespace fav {

BitVector::BitVector(std::size_t size, bool value)
    : words_(word_count(size), value ? ~std::uint64_t{0} : 0), size_(size) {
  trim();
}

BitVector BitVector::from_string(const std::string& bits) {
  BitVector v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    FAV_ENSURE_MSG(bits[i] == '0' || bits[i] == '1',
                  "invalid bit char '" << bits[i] << "' at index " << i);
    v.set(i, bits[i] == '1');
  }
  return v;
}

BitVector BitVector::from_words(std::vector<std::uint64_t> words,
                                std::size_t size) {
  FAV_ENSURE_MSG(words.size() == word_count(size),
                "word count " << words.size() << " does not match size "
                              << size);
  BitVector v;
  v.words_ = std::move(words);
  v.size_ = size;
  v.trim();
  return v;
}

bool BitVector::test(std::size_t i) const {
  FAV_ENSURE_MSG(i < size_, "bit index " << i << " out of range " << size_);
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVector::set(std::size_t i, bool value) {
  FAV_ENSURE_MSG(i < size_, "bit index " << i << " out of range " << size_);
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= mask;
  } else {
    words_[i / kWordBits] &= ~mask;
  }
}

void BitVector::push_back(bool value) {
  resize(size_ + 1);
  set(size_ - 1, value);
}

void BitVector::resize(std::size_t size) {
  words_.resize(word_count(size), 0);
  size_ = size;
  trim();
}

void BitVector::reserve(std::size_t size) { words_.reserve(word_count(size)); }

std::size_t BitVector::count() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

BitVector& BitVector::operator&=(const BitVector& rhs) {
  FAV_ENSURE_MSG(size_ == rhs.size_, "size mismatch " << size_ << " vs " << rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= rhs.words_[i];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& rhs) {
  FAV_ENSURE_MSG(size_ == rhs.size_, "size mismatch " << size_ << " vs " << rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}

BitVector& BitVector::operator^=(const BitVector& rhs) {
  FAV_ENSURE_MSG(size_ == rhs.size_, "size mismatch " << size_ << " vs " << rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= rhs.words_[i];
  return *this;
}

BitVector BitVector::shifted_down(std::size_t n) const {
  BitVector out(size_);
  if (n >= size_) return out;
  const std::size_t word_shift = n / kWordBits;
  const std::size_t bit_shift = n % kWordBits;
  for (std::size_t i = 0; i + word_shift < words_.size(); ++i) {
    std::uint64_t w = words_[i + word_shift] >> bit_shift;
    if (bit_shift != 0 && i + word_shift + 1 < words_.size()) {
      w |= words_[i + word_shift + 1] << (kWordBits - bit_shift);
    }
    out.words_[i] = w;
  }
  out.trim();
  return out;
}

BitVector BitVector::shifted_up(std::size_t n) const {
  BitVector out(size_);
  if (n >= size_) return out;
  const std::size_t word_shift = n / kWordBits;
  const std::size_t bit_shift = n % kWordBits;
  for (std::size_t i = words_.size(); i-- > word_shift;) {
    std::uint64_t w = words_[i - word_shift] << bit_shift;
    if (bit_shift != 0 && i - word_shift >= 1) {
      w |= words_[i - word_shift - 1] >> (kWordBits - bit_shift);
    }
    out.words_[i] = w;
  }
  out.trim();
  return out;
}

std::size_t BitVector::and_count(const BitVector& rhs) const {
  FAV_ENSURE_MSG(size_ == rhs.size_, "size mismatch " << size_ << " vs " << rhs.size_);
  std::size_t n = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    n += static_cast<std::size_t>(std::popcount(words_[i] & rhs.words_[i]));
  }
  return n;
}

bool BitVector::operator==(const BitVector& rhs) const {
  return size_ == rhs.size_ && words_ == rhs.words_;
}

std::string BitVector::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (test(i)) s[i] = '1';
  }
  return s;
}

std::vector<std::size_t> BitVector::set_bits() const {
  std::vector<std::size_t> out;
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w != 0) {
      const int b = std::countr_zero(w);
      out.push_back(wi * kWordBits + static_cast<std::size_t>(b));
      w &= w - 1;
    }
  }
  return out;
}

void BitVector::trim() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

}  // namespace fav
