// Common fundamental types and small helpers shared by every subsystem.
#pragma once

#include <cstdint>
#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace ouessant {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Cycle count on the (single) SoC clock domain.
using Cycle = u64;

/// Byte address on the system bus.
using Addr = u32;

/// Error thrown for invalid configuration of a simulated component
/// (the simulation equivalent of an elaboration-time failure).
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Error thrown when simulated software or firmware misuses a component
/// (the simulation equivalent of a runtime bus error / bad microcode).
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

/// "0x" and eight upper-case hex digits — how messages and generated
/// assembly spell an address or a word.
inline std::string hex(u32 v) {
  char buf[11];
  std::snprintf(buf, sizeof buf, "0x%08X", v);
  return buf;
}

/// Number of 32-bit words needed to hold @p bits bits.
constexpr u32 words_for_bits(u32 bits) { return (bits + 31u) / 32u; }

/// True if @p v is a power of two (and non-zero).
constexpr bool is_pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

/// log2 of a power of two.
constexpr u32 log2_exact(u64 v) {
  u32 n = 0;
  while (v > 1) {
    v >>= 1;
    ++n;
  }
  return n;
}

/// Round @p v up to the next multiple of @p m (m > 0).
constexpr u64 round_up(u64 v, u64 m) { return ((v + m - 1) / m) * m; }

/// Smallest n such that 2^n >= v (v >= 1). ceil_log2(1) == 0.
constexpr u32 ceil_log2(u64 v) {
  u32 n = 0;
  u64 p = 1;
  while (p < v) {
    p <<= 1;
    ++n;
  }
  return n;
}

}  // namespace ouessant
