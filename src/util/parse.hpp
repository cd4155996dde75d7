// One bounded reader for the integers people type: microcode and L3
// assembler operands, and ouessant_bench's numeric flags.
#pragma once

#include <optional>
#include <string_view>

#include "util/types.hpp"

namespace ouessant::util {

/// The whole of @p text as an unsigned integer no larger than @p max, or
/// nullopt. Decimal, or hexadecimal after "0x"/"0X". Refused: any sign,
/// whitespace, a decimal with a leading zero (strtoul read it as octal)
/// and a value past @p max, the field's width.
[[nodiscard]] std::optional<u64> read_uint(std::string_view text, u64 max);

/// The same for a signed field in [@p min, @p max]: a leading '-' is
/// read only when @p min is negative.
[[nodiscard]] std::optional<i64> read_int(std::string_view text, i64 min,
                                          i64 max);

}  // namespace ouessant::util
