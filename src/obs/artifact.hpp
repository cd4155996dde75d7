// Shared file I/O for every obs artifact (traces, flight dumps, metrics
// files, SLO reports, analysis reports): the open-for-write helper and
// the one string escaper their serializers use, and the one JSON cursor
// their readers parse with.
//
// Artifact paths are usually relative stems ("build/bench/run42"), and
// the writer runs from whatever working directory the harness chose —
// the bench driver from the repo root, ctest from its own binary dir.
// A missing parent directory is therefore an environment detail, not
// an error: create it, then open. A genuinely unwritable path still
// throws SimError naming the writer and the path.
#pragma once

#include <fstream>
#include <string>
#include <string_view>

#include "util/types.hpp"

namespace ouessant::obs {

/// Open `path` for writing, creating missing parent directories first.
/// Throws SimError("<who>: cannot write <path>") if the open fails.
[[nodiscard]] std::ofstream open_artifact(const std::string& path,
                                          const char* who);

/// Read `path` whole. Throws SimError("<who>: cannot open <path>").
[[nodiscard]] std::string read_artifact(const std::string& path,
                                        const char* who);

/// JSON string-literal escape of @p s: quote, backslash and every
/// control byte (the result is not quoted). Every writer routes runtime
/// strings (names, units, args, sweep metadata) through here, so a quote
/// in a name cannot corrupt the file and JsonCursor reads it back.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Cursor over the JSON the obs writers emit: objects, arrays, strings
/// with json_escape's escapes, numbers and true/false/null. Not a
/// general JSON parser, but every malformed input — bad syntax, a raw
/// control byte inside a string, a negative or 64-bit-overflowing
/// integer, an out-of-range real — throws SimError naming @p context
/// and the byte offset. The text must outlive it.
class JsonCursor {
 public:
  JsonCursor(std::string_view text, std::string context)
      : text_(text), context_(std::move(context)) {}

  /// Next non-whitespace character, not consumed.
  [[nodiscard]] char peek();
  void expect(char c);
  [[nodiscard]] bool consume(char c);
  [[nodiscard]] std::string string();
  /// An unsigned integer no larger than @p max. A fractional part is
  /// truncated (cycle timestamps are integral); a sign or an exponent is
  /// rejected.
  [[nodiscard]] u64 uint(u64 max = ~u64{0});
  /// Any JSON number, which must fit a double.
  [[nodiscard]] double real();
  /// Skip one value of any kind.
  void skip_value();
  /// Only whitespace may follow the top-level value.
  void finish();
  [[noreturn]] void fail(const std::string& why) const;

  /// `{"key": value, ...}`: calls @p member(key) with the cursor on each
  /// value, which the callback must consume.
  template <typename F>
  void object(F&& member) {
    expect('{');
    if (consume('}')) return;
    do {
      const std::string key = string();
      expect(':');
      member(key);
    } while (consume(','));
    expect('}');
  }

  /// `[value, ...]`: calls @p element() with the cursor on each value.
  template <typename F>
  void array(F&& element) {
    expect('[');
    if (consume(']')) return;
    do {
      element();
    } while (consume(','));
    expect(']');
  }

 private:
  void skip_ws();
  [[nodiscard]] bool digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }
  void skip_digits() {
    while (digit()) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< skip_value nesting
  std::string context_;
};

}  // namespace ouessant::obs
