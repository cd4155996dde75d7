#include "obs/artifact.hpp"

#include <charconv>
#include <filesystem>
#include <sstream>
#include <system_error>

namespace ouessant::obs {

std::ofstream open_artifact(const std::string& path, const char* who) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    // Best-effort: an unwritable parent surfaces as the open failure
    // below, with the writer's name attached.
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) {
    throw SimError(std::string(who) + ": cannot write " + path);
  }
  return out;
}

std::string read_artifact(const std::string& path, const char* who) {
  std::ifstream in(path);
  if (!in) {
    throw SimError(std::string(who) + ": cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void JsonCursor::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonCursor::peek() {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_];
}

void JsonCursor::expect(char c) {
  if (peek() != c) {
    fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
  }
  ++pos_;
}

bool JsonCursor::consume(char c) {
  if (peek() != c) return false;
  ++pos_;
  return true;
}

std::string JsonCursor::string() {
  expect('"');
  std::string out;
  while (true) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"':
      case '\\':
      case '/':
        out += e;
        break;
      case 'n':
        out += '\n';
        break;
      case 't':
        out += '\t';
        break;
      case 'r':
        out += '\r';
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        const auto [end, ec] = std::from_chars(
            text_.data() + pos_, text_.data() + pos_ + 4, code, 16);
        if (ec != std::errc() || end != text_.data() + pos_ + 4) {
          fail("bad \\u escape digit");
        }
        pos_ += 4;
        // The writers only escape control bytes; anything else is
        // stored as the low byte (good enough for ASCII artifacts).
        out += static_cast<char>(code & 0xFF);
        break;
      }
      default:
        fail(std::string("unsupported escape \\") + e);
    }
  }
}

u64 JsonCursor::uint(u64 max) {
  if (peek() == '-') fail("negative number where the schema is unsigned");
  if (!digit()) fail("expected an unsigned integer");
  u64 v = 0;
  while (digit()) {
    const u64 d = static_cast<u64>(text_[pos_++] - '0');
    if (v > (max - d) / 10) {
      fail("integer larger than " + std::to_string(max));
    }
    v = v * 10 + d;
  }
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    skip_digits();
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    fail("exponent in an integer field");
  }
  return v;
}

double JsonCursor::real() {
  (void)peek();
  const std::size_t start = pos_;
  if (text_[pos_] == '-') ++pos_;
  if (!digit()) fail("expected a number");
  skip_digits();
  if (pos_ < text_.size() && text_[pos_] == '.') {
    ++pos_;
    if (!digit()) fail("expected digits after '.'");
    skip_digits();
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (!digit()) fail("expected exponent digits");
    skip_digits();
  }
  double v = 0.0;
  const auto [end, ec] =
      std::from_chars(text_.data() + start, text_.data() + pos_, v);
  if (ec != std::errc() || end != text_.data() + pos_) {
    fail("number out of range for a double");
  }
  return v;
}

void JsonCursor::skip_value() {
  const char c = peek();
  if (c == '{' || c == '[') {
    // Bounded recursion: a hostile file must not overflow the stack.
    if (++depth_ > 64) fail("nesting deeper than 64 levels");
    if (c == '{') {
      object([this](const std::string&) { skip_value(); });
    } else {
      array([this] { skip_value(); });
    }
    --depth_;
  } else if (c == '"') {
    (void)string();
  } else if (c == 't' || c == 'f' || c == 'n') {
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return;
      }
    }
    fail("unknown literal");
  } else {
    (void)real();
  }
}

void JsonCursor::finish() {
  skip_ws();
  if (pos_ != text_.size()) fail("trailing data after the top-level value");
}

void JsonCursor::fail(const std::string& why) const {
  throw SimError(context_ + ": " + why + " at byte " + std::to_string(pos_));
}

}  // namespace ouessant::obs
