#include "snap/state.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

namespace ouessant::snap {

namespace {

const char* tag_name(Tag t) {
  switch (t) {
    case Tag::kBool: return "bool";
    case Tag::kU8: return "u8";
    case Tag::kU32: return "u32";
    case Tag::kU64: return "u64";
    case Tag::kDouble: return "double";
    case Tag::kString: return "string";
    case Tag::kWords32: return "words32";
    case Tag::kWords64: return "words64";
    case Tag::kBytes: return "bytes";
  }
  return "?";
}

constexpr u32 kLiteralBit = 0x8000'0000u;
constexpr u32 kMaxBlockWords = 0x7fff'ffffu;
/// The most words the dense read_words32() accepts: far above any
/// component's register-sized field.
constexpr u32 kMaxDenseWords32 = 1u << 20;

u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

u64 load_le64(const u8* p) {
  return load_le32(p) | (static_cast<u64>(load_le32(p + 4)) << 32);
}

/// Decodes the @p out.size() little-endian words at @p p into @p out. On
/// a little-endian host that is one copy, several times faster than the
/// per-word loop, which must reload after every store (u8 aliases all).
template <class Word>
void load_le(const u8* p, std::span<Word> out) {
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) std::memcpy(out.data(), p, out.size_bytes());
  } else {
    for (Word& w : out) {
      w = sizeof(Word) == 4 ? load_le32(p) : load_le64(p);
      p += sizeof(Word);
    }
  }
}

}  // namespace

void load_le32(std::span<const u8> bytes, std::span<u32> out) {
  load_le(bytes.first(out.size_bytes()).data(), out);
}

// ---------------------------------------------------------------------------
// StateWriter

void StateWriter::field(Tag tag, std::string_view name) {
  if (name.size() > 255) {
    throw SnapshotError("snapshot field name too long: " +
                        std::string(name));
  }
  buf_.push_back(static_cast<u8>(tag));
  buf_.push_back(static_cast<u8>(name.size()));
  buf_.insert(buf_.end(), name.begin(), name.end());
}

void StateWriter::raw_u32(u32 v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void StateWriter::raw_u64(u64 v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
}

void StateWriter::write_bool(std::string_view name, bool v) {
  field(Tag::kBool, name);
  buf_.push_back(v ? 1 : 0);
}

void StateWriter::write_u8(std::string_view name, u8 v) {
  field(Tag::kU8, name);
  buf_.push_back(v);
}

void StateWriter::write_u32(std::string_view name, u32 v) {
  field(Tag::kU32, name);
  raw_u32(v);
}

void StateWriter::write_u64(std::string_view name, u64 v) {
  field(Tag::kU64, name);
  raw_u64(v);
}

void StateWriter::write_double(std::string_view name, double v) {
  field(Tag::kDouble, name);
  u64 bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  raw_u64(bits);
}

void StateWriter::write_string(std::string_view name, std::string_view v) {
  field(Tag::kString, name);
  raw_u32(static_cast<u32>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void StateWriter::write_words32(std::string_view name,
                                const std::vector<u32>& v) {
  const u32* page = v.data();
  write_words32(name, static_cast<u32>(v.size()), {&page, 1},
                static_cast<u32>(v.size()));
}

void StateWriter::write_words32(std::string_view name, u32 count,
                                std::span<const u32* const> pages,
                                u32 page_words) {
  if (count > pages.size() * std::size_t{page_words}) {
    throw SnapshotError("words32 '" + std::string(name) + "': " +
                        std::to_string(count) + " words overrun its pages");
  }
  field(Tag::kWords32, name);
  raw_u32(count);
  auto word = [&](std::size_t i) {
    const u32* p = pages[i / page_words];
    return p != nullptr ? p[i % page_words] : 0u;
  };
  // Greedy RLE: runs of >= 4 equal words become a run block, everything
  // between them a literal block. The 4-word threshold keeps a literal
  // stream from degenerating into per-word blocks.
  std::size_t i = 0;
  std::size_t lit_begin = 0;
  auto flush_literal = [&](std::size_t end) {
    std::size_t b = lit_begin;
    while (b < end) {
      const std::size_t n = std::min<std::size_t>(end - b, kMaxBlockWords);
      raw_u32(kLiteralBit | static_cast<u32>(n));
      for (std::size_t k = 0; k < n; ++k) raw_u32(word(b + k));
      b += n;
    }
  };
  while (i < count) {
    const u32 value = word(i);
    const std::size_t limit =
        std::min<std::size_t>(count, i + kMaxBlockWords);
    std::size_t end = i + 1;
    while (end < limit) {
      if (value == 0 && pages[end / page_words] == nullptr) {
        // An absent page extends a zero run to the page's end at once.
        end = std::min(limit, (end / page_words + 1) * page_words);
      } else if (word(end) == value) {
        ++end;
      } else {
        break;
      }
    }
    if (end - i >= 4) {
      flush_literal(i);
      raw_u32(static_cast<u32>(end - i));
      raw_u32(value);
      lit_begin = end;
    }
    i = end;
  }
  flush_literal(count);
}

void StateWriter::write_words64(std::string_view name,
                                const std::vector<u64>& v) {
  field(Tag::kWords64, name);
  raw_u32(static_cast<u32>(v.size()));
  for (u64 w : v) raw_u64(w);
}

void StateWriter::write_bytes(std::string_view name,
                              const std::vector<u8>& v) {
  field(Tag::kBytes, name);
  raw_u32(static_cast<u32>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

// ---------------------------------------------------------------------------
// StateReader

StateReader::StateReader(std::span<const u8> bytes, std::string_view context)
    : buf_(bytes), context_(context) {}

StateReader::StateReader(std::vector<u8>&& bytes, std::string_view context)
    : owned_(std::move(bytes)), buf_(owned_), context_(context) {}

void StateReader::fail(const std::string& why) const {
  throw SnapshotError("snapshot [" + std::string(context_) + "] at byte " +
                      std::to_string(pos_) + ": " + why);
}

void StateReader::need(std::size_t n) const {
  if (pos_ + n > buf_.size()) {
    fail("truncated (need " + std::to_string(n) + " bytes, have " +
         std::to_string(buf_.size() - pos_) + ")");
  }
}

u8 StateReader::raw_u8() {
  need(1);
  return buf_[pos_++];
}

u32 StateReader::raw_u32() {
  need(4);
  const u32 v = load_le32(buf_.data() + pos_);
  pos_ += 4;
  return v;
}

u64 StateReader::raw_u64() {
  need(8);
  const u64 v = load_le64(buf_.data() + pos_);
  pos_ += 8;
  return v;
}

void StateReader::expect_field(Tag tag, std::string_view name) {
  const u8 got_tag = raw_u8();
  const u8 name_len = raw_u8();
  need(name_len);
  const std::string_view got_name(
      reinterpret_cast<const char*>(buf_.data() + pos_), name_len);
  if (got_tag != static_cast<u8>(tag) || got_name != name) {
    fail("expected " + std::string(tag_name(tag)) + " '" +
         std::string(name) + "', found tag " + std::to_string(got_tag) +
         " '" + std::string(got_name) + "'");
  }
  pos_ += name_len;
}

bool StateReader::read_bool(std::string_view name) {
  expect_field(Tag::kBool, name);
  const u8 v = raw_u8();
  if (v > 1) fail("bool '" + std::string(name) + "' holds " +
                  std::to_string(v));
  return v != 0;
}

u8 StateReader::read_u8(std::string_view name) {
  expect_field(Tag::kU8, name);
  return raw_u8();
}

u32 StateReader::read_u32(std::string_view name) {
  expect_field(Tag::kU32, name);
  return raw_u32();
}

u64 StateReader::read_u64(std::string_view name) {
  expect_field(Tag::kU64, name);
  return raw_u64();
}

double StateReader::read_double(std::string_view name) {
  expect_field(Tag::kDouble, name);
  const u64 bits = raw_u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string StateReader::read_string(std::string_view name) {
  expect_field(Tag::kString, name);
  const u32 len = raw_u32();
  need(len);
  std::string v(reinterpret_cast<const char*>(buf_.data() + pos_), len);
  pos_ += len;
  return v;
}

void StateReader::read_blocks(
    u32 count, const std::function<void(const Words32Block&)>& sink) {
  u32 at = 0;
  while (at < count) {
    const u32 block = raw_u32();
    if ((block & kLiteralBit) != 0) {
      // One bounds check for the whole block, from its header; the sink
      // decodes the bytes where they lie.
      const u32 n = block & kMaxBlockWords;
      if (n > count - at) fail("RLE literal overruns word count");
      const std::size_t bytes = std::size_t{n} * 4;
      need(bytes);
      sink({.at = at, .n = n, .literal = buf_.subspan(pos_, bytes)});
      pos_ += bytes;
      at += n;
    } else {
      if (block == 0 || block > count - at) {
        fail("RLE run overruns word count");
      }
      sink({.at = at, .n = block, .value = raw_u32(), .literal = {}});
      at += block;
    }
  }
}

std::vector<u32> StateReader::read_words32(std::string_view name) {
  expect_field(Tag::kWords32, name);
  const u32 count = raw_u32();
  if (count > kMaxDenseWords32) {
    fail("words32 '" + std::string(name) + "' declares " +
         std::to_string(count) + " words, more than a dense field may hold");
  }
  std::vector<u32> v;
  read_blocks(count, [&v](const Words32Block& b) {
    v.resize(std::size_t{b.at} + b.n, b.value);
    if (!b.literal.empty()) load_le32(b.literal, std::span(v).last(b.n));
  });
  return v;
}

void StateReader::read_words32(
    std::string_view name, u32 count,
    const std::function<void(const Words32Block&)>& sink) {
  expect_field(Tag::kWords32, name);
  const u32 declared = raw_u32();
  if (declared != count) {
    fail("words32 '" + std::string(name) + "' holds " +
         std::to_string(declared) + " words, expected " +
         std::to_string(count));
  }
  read_blocks(count, sink);
}

std::vector<u64> StateReader::read_words64(std::string_view name) {
  expect_field(Tag::kWords64, name);
  const u32 count = raw_u32();
  need(static_cast<std::size_t>(count) * 8);
  std::vector<u64> v(count);
  load_le(buf_.data() + pos_, std::span<u64>(v));
  pos_ += std::size_t{count} * 8;
  return v;
}

std::vector<u8> StateReader::read_bytes(std::string_view name) {
  expect_field(Tag::kBytes, name);
  const u32 len = raw_u32();
  need(len);
  std::vector<u8> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                    buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return v;
}

void StateReader::expect_end() const {
  if (pos_ != buf_.size()) {
    fail("unconsumed trailing state (" +
         std::to_string(buf_.size() - pos_) + " bytes)");
  }
}

}  // namespace ouessant::snap
