#include "util/parse.hpp"

#include <charconv>

namespace ouessant::util {

std::optional<u64> read_uint(std::string_view text, u64 max) {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    base = 16;
    text.remove_prefix(2);
  } else if (text.size() > 1 && text[0] == '0') {
    return std::nullopt;
  }
  // from_chars takes no sign or whitespace for an unsigned type, and
  // reports overflow as result_out_of_range.
  const char* end = text.data() + text.size();
  u64 v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
  if (ec != std::errc{} || ptr != end || v > max) return std::nullopt;
  return v;
}

std::optional<i64> read_int(std::string_view text, i64 min, i64 max) {
  const bool negative = min < 0 && text.starts_with('-');
  if (negative) text.remove_prefix(1);
  const u64 bound =
      negative ? 0 - static_cast<u64>(min) : static_cast<u64>(max < 0 ? 0 : max);
  const std::optional<u64> magnitude = read_uint(text, bound);
  if (!magnitude) return std::nullopt;
  const auto v = static_cast<i64>(negative ? 0 - *magnitude : *magnitude);
  if (v < min || v > max) return std::nullopt;
  return v;
}

}  // namespace ouessant::util
