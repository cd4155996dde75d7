#include "fifo/bit_queue.hpp"

namespace ouessant::fifo {

void BitQueue::push(u64 value, unsigned width) {
  if (width == 0 || width > 64) {
    throw SimError("BitQueue::push: width must be 1..64");
  }
  for (unsigned i = 0; i < width; ++i) {
    bits_.push_back(static_cast<u8>((value >> i) & 1u));
  }
}

u64 BitQueue::pop(unsigned width) {
  const u64 v = peek(width);
  drop(width);
  return v;
}

void BitQueue::drop(unsigned width) {
  check_readable(width);
  bits_.erase(bits_.begin(), bits_.begin() + width);
}

void BitQueue::check_readable(unsigned width) const {
  // pop() and drop() report peek()'s texts.
  if (width == 0 || width > 64) {
    throw SimError("BitQueue::peek: width must be 1..64");
  }
  if (bits_.size() < width) {
    throw SimError("BitQueue: underflow");
  }
}

u64 BitQueue::peek(unsigned width) const {
  check_readable(width);
  u64 v = 0;
  for (unsigned i = 0; i < width; ++i) {
    v |= static_cast<u64>(bits_[i]) << i;
  }
  return v;
}

}  // namespace ouessant::fifo
