// Tagged sequential state streams — the per-component wire format of a
// snapshot section.
//
// A component's save_state() writes a sequence of named, type-tagged
// fields through a StateWriter; restore_state() reads the same sequence
// back through a StateReader. Names and tags are verified on read, so a
// version skew or a reordered field fails loudly with a SnapshotError
// naming the component, the field, and what was found instead — never a
// silent misparse. The format is deliberately sequential (no random
// access): component state is small and ordered, and the name checks
// make the stream self-describing enough for debugging with xxd.
//
// Encoding (little-endian throughout):
//   field   := tag:u8 name_len:u8 name[name_len] payload
//   bool    := u8 (0/1)            u8/u32/u64 := fixed width
//   double  := 8 bytes (bit pattern via u64)
//   string  := u32 len + bytes
//   words32 := u32 count + RLE blocks (see below)
//   words64 := u32 count + raw words
//   bytes   := u32 len + raw bytes
//
// words32 RLE: blocks of (u32 n, payload). If n has bit 31 set, a
// literal block of (n & 0x7fffffff) words follows; otherwise one u32
// value follows, repeated n times. Blocks concatenate until `count`
// words are produced. Memories are mostly zero or mostly repetitive, so
// this keeps SRAM sections proportional to touched data. The writer
// takes words as a table of pages in which a null page is all zeros,
// so a paged memory encodes in time proportional to its present pages.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace ouessant::snap {

/// Error for every malformed-snapshot condition: bad magic, version
/// skew, truncation, CRC mismatch, or a field tag/name that does not
/// match what restore_state() expects. Derives from SimError so
/// existing catch sites handle it.
class SnapshotError : public SimError {
 public:
  explicit SnapshotError(const std::string& what) : SimError(what) {}
};

/// Field type tags. Values are part of the on-disk format — append
/// only, never renumber.
enum class Tag : u8 {
  kBool = 1,
  kU8 = 2,
  kU32 = 3,
  kU64 = 4,
  kDouble = 5,
  kString = 6,
  kWords32 = 7,
  kWords64 = 8,
  kBytes = 9,
};

/// One decoded words32 RLE block: @c n words starting at word @c at,
/// either the words of a literal block or @c n copies of @c value.
struct Words32Block {
  u32 at = 0;
  u32 n = 0;
  u32 value = 0;                  ///< the repeated word of a run block
  std::span<const u32> literal;   ///< a literal block's words; empty for a run
};

/// Builds one component's byte stream, field by field.
class StateWriter {
 public:
  void write_bool(std::string_view name, bool v);
  void write_u8(std::string_view name, u8 v);
  void write_u32(std::string_view name, u32 v);
  void write_u64(std::string_view name, u64 v);
  void write_double(std::string_view name, double v);
  void write_string(std::string_view name, std::string_view v);
  void write_words32(std::string_view name, const std::vector<u32>& v);
  /// words32 of the first @p count words of @p pages, each @p page_words
  /// long; a null page stands for @p page_words zeros. Emits exactly the
  /// bytes of the dense overload for the same words.
  void write_words32(std::string_view name, u32 count,
                     std::span<const u32* const> pages, u32 page_words);
  void write_words64(std::string_view name, const std::vector<u64>& v);
  void write_bytes(std::string_view name, const std::vector<u8>& v);

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }

 private:
  void field(Tag tag, std::string_view name);
  void raw_u32(u32 v);
  void raw_u64(u64 v);

  std::vector<u8> buf_;
};

/// Replays one component's byte stream. Every read names the expected
/// field; a mismatch (wrong tag, wrong name, truncated payload) throws
/// SnapshotError with @p context (typically the section name) in the
/// message.
class StateReader {
 public:
  StateReader(std::vector<u8> bytes, std::string context);

  bool read_bool(std::string_view name);
  u8 read_u8(std::string_view name);
  u32 read_u32(std::string_view name);
  u64 read_u64(std::string_view name);
  double read_double(std::string_view name);
  std::string read_string(std::string_view name);
  /// A whole words32 field as one vector. A declared count above 1 Mi
  /// words throws before any block is decoded: one 8-byte run block
  /// could otherwise make it allocate gigabytes. Memories stream through
  /// the overload below instead.
  std::vector<u32> read_words32(std::string_view name);
  /// Streams a words32 field of exactly @p count words into @p sink, one
  /// RLE block at a time, without materialising the words. A declared
  /// count other than @p count throws before any block is decoded.
  void read_words32(std::string_view name, u32 count,
                    const std::function<void(const Words32Block&)>& sink);
  std::vector<u64> read_words64(std::string_view name);
  std::vector<u8> read_bytes(std::string_view name);

  /// Throws unless the whole stream has been consumed — catches a
  /// restore_state() that silently ignores trailing saved fields.
  void expect_end() const;

 private:
  [[noreturn]] void fail(const std::string& why) const;
  void expect_field(Tag tag, std::string_view name);
  void read_blocks(u32 count,
                   const std::function<void(const Words32Block&)>& sink);
  u8 raw_u8();
  u32 raw_u32();
  u64 raw_u64();
  void need(std::size_t n) const;

  std::vector<u8> buf_;
  std::size_t pos_ = 0;
  std::string context_;
};

}  // namespace ouessant::snap
