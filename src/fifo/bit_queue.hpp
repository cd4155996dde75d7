// Bit-granular FIFO storage used by the width-adapting FIFOs (paper
// Fig. 2). Values are serialized LSB-first: pushing a 96-bit word and
// popping three 32-bit words yields bits [31:0], [63:32], [95:64] in that
// order, which matches the word order a little-endian bus master would
// write into a wide accelerator register.
#pragma once

#include <deque>
#include <vector>

#include "util/types.hpp"

namespace ouessant::fifo {

class BitQueue {
 public:
  /// Append the low @p width bits of @p value (1..64).
  void push(u64 value, unsigned width);

  /// Remove and return the next @p width bits (1..64). Requires
  /// size_bits() >= width.
  u64 pop(unsigned width);

  /// Return the next @p width bits without removing them.
  [[nodiscard]] u64 peek(unsigned width) const;

  /// Remove the next @p width bits without reading them: pop() with the
  /// value thrown away, and the same checks and errors. A FIFO commit
  /// drops the chunk its cycle's read already returned.
  void drop(unsigned width);

  [[nodiscard]] std::size_t size_bits() const { return bits_.size(); }
  [[nodiscard]] bool empty() const { return bits_.empty(); }
  void clear() { bits_.clear(); }

  /// Snapshot support: dense word image of the queue, oldest bit in bit
  /// 0 of word 0, zero-padded in the final word.
  [[nodiscard]] std::vector<u32> pack_words() const {
    std::vector<u32> words((bits_.size() + 31) / 32, 0);
    for (std::size_t i = 0; i < bits_.size(); ++i) {
      if (bits_[i] != 0) words[i / 32] |= (u32{1} << (i % 32));
    }
    return words;
  }

  /// Inverse of pack_words(): replace the contents with @p bit_count
  /// bits unpacked from @p words.
  void unpack_words(const std::vector<u32>& words, std::size_t bit_count) {
    bits_.clear();
    for (std::size_t i = 0; i < bit_count; ++i) {
      bits_.push_back(
          static_cast<u8>((words[i / 32] >> (i % 32)) & 1u));
    }
  }

 private:
  /// Throws unless the next @p width bits (1..64) can be read.
  void check_readable(unsigned width) const;

  std::deque<u8> bits_;  // one entry per bit, front = oldest
};

}  // namespace ouessant::fifo
