// Tagged sequential state streams — the per-component wire format of a
// snapshot section.
//
// A component declares its state once, as one field list
// (`void state(Fields&)`, below). Saving runs that list over a
// StateWriter, which writes a sequence of named, type-tagged fields;
// restoring runs the same list over a StateReader, which reads the
// sequence back. Names and tags are verified on read, so a
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

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
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

/// Decodes the @p out.size() little-endian words at the start of
/// @p bytes into @p out, in one copy on a little-endian host. @p bytes
/// may lie at any alignment and must hold at least 4 * out.size() bytes.
void load_le32(std::span<const u8> bytes, std::span<u32> out);

/// One words32 RLE block: @c n words starting at word @c at, either the
/// words of a literal block or @c n copies of @c value. A literal block
/// is not decoded: @c literal holds its @c n words as little-endian
/// bytes where they lie in the stream, and the sink decodes them into
/// its own storage with load_le32(). The block's bounds are checked
/// before the sink sees it.
struct Words32Block {
  u32 at = 0;
  u32 n = 0;
  u32 value = 0;                ///< the repeated word of a run block
  std::span<const u8> literal;  ///< a literal block's 4n bytes; empty for a run
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
///
/// A reader reads its bytes where they lie. It owns them only when it is
/// handed a vector to keep (a stream built on the spot); otherwise the
/// bytes, like the context, are borrowed and must outlive the reader (a
/// restore reads each section in place from the Snapshot it was given).
class StateReader {
 public:
  StateReader(std::span<const u8> bytes, std::string_view context);
  StateReader(std::vector<u8>&& bytes, std::string_view context);
  StateReader(const StateReader&) = delete;
  StateReader& operator=(const StateReader&) = delete;

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

  /// Bytes not yet read.
  [[nodiscard]] std::size_t remaining() const { return buf_.size() - pos_; }

  /// Throws SnapshotError naming the context and the byte offset.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void expect_field(Tag tag, std::string_view name);
  void read_blocks(u32 count,
                   const std::function<void(const Words32Block&)>& sink);
  u8 raw_u8();
  u32 raw_u32();
  u64 raw_u64();
  void need(std::size_t n) const;

  std::vector<u8> owned_;
  std::span<const u8> buf_;
  std::size_t pos_ = 0;
  std::string_view context_;
};

/// One field list, run in either direction. A stateful class declares
/// its wire format once, as `void state(snap::Fields& f)`, naming its
/// fields in wire order; saving runs the list over a StateWriter and
/// restoring runs the same list over a StateReader. Only three things
/// may depend on the direction:
///   - an encoding whose wire form differs from the member: gather into
///     a local before its field, scatter under restoring() after it;
///   - a check on a restored value, written next to its field (on save
///     it holds, because a live object is consistent);
///   - reconnecting stream endpoints after a restore, at the end. A list
///     never arms a timer: the kernel section alone restores the
///     schedule (every awake flag and wake timer).
class Fields {
 public:
  explicit Fields(StateWriter& w) : w_(&w) {}
  explicit Fields(StateReader& r) : r_(&r) {}

  [[nodiscard]] bool saving() const { return w_ != nullptr; }
  [[nodiscard]] bool restoring() const { return r_ != nullptr; }
  /// The underlying streams, for an encoding that streams (SRAM pages).
  [[nodiscard]] StateWriter& writer() const { return *w_; }
  [[nodiscard]] StateReader& reader() const { return *r_; }

  void field(std::string_view name, bool& v) {
    w_ ? w_->write_bool(name, v) : void(v = r_->read_bool(name));
  }
  void field(std::string_view name, u8& v) {
    w_ ? w_->write_u8(name, v) : void(v = r_->read_u8(name));
  }
  void field(std::string_view name, u32& v) {
    w_ ? w_->write_u32(name, v) : void(v = r_->read_u32(name));
  }
  void field(std::string_view name, u64& v) {
    w_ ? w_->write_u64(name, v) : void(v = r_->read_u64(name));
  }
  void field(std::string_view name, double& v) {
    w_ ? w_->write_double(name, v) : void(v = r_->read_double(name));
  }
  void field(std::string_view name, std::string& v) {
    w_ ? w_->write_string(name, v) : void(v = r_->read_string(name));
  }
  void field(std::string_view name, std::vector<u32>& v) {
    w_ ? w_->write_words32(name, v) : void(v = r_->read_words32(name));
  }
  void field(std::string_view name, std::vector<u64>& v) {
    w_ ? w_->write_words64(name, v) : void(v = r_->read_words64(name));
  }
  void field(std::string_view name, std::vector<u8>& v) {
    w_ ? w_->write_bytes(name, v) : void(v = r_->read_bytes(name));
  }

  /// A fixed-length words32 field (a register file, a delay line): the
  /// image must hold exactly v.size() words.
  template <class T, std::size_t N>
    requires(std::is_same_v<T, u32> || std::is_same_v<T, i32>)
  void field(std::string_view name, std::span<T, N> v) {
    const auto n = static_cast<u32>(v.size());
    if (w_ != nullptr) {
      const u32* page = reinterpret_cast<const u32*>(v.data());
      w_->write_words32(name, n, {&page, 1}, n);
      return;
    }
    r_->read_words32(name, n, [v](const Words32Block& b) {
      const auto out = v.subspan(b.at, b.n);
      if (b.literal.empty()) {
        std::fill(out.begin(), out.end(), static_cast<T>(b.value));
      } else {
        // An i32 may be accessed through its unsigned counterpart.
        load_le32(b.literal,
                  {reinterpret_cast<u32*>(out.data()), out.size()});
      }
    });
  }

  /// @p v carried as the wire integer @p Wire (a size_t, an int, an enum).
  template <class Wire, class T>
  void field_as(std::string_view name, T& v) {
    Wire x = static_cast<Wire>(v);
    field(name, x);
    if (r_ != nullptr) v = static_cast<T>(x);
  }

  /// An enum carried as @p Wire; a restored value above @p last throws
  /// before it reaches the member.
  template <class Wire, class E>
    requires std::is_enum_v<E>
  void field_as(std::string_view name, E& v, E last) {
    Wire x = static_cast<Wire>(v);
    field(name, x);
    if (x > static_cast<Wire>(last)) {
      fail("'" + std::string(name) + "' holds " + std::to_string(x) +
           ", past the last value " + std::to_string(static_cast<Wire>(last)));
    }
    if (r_ != nullptr) v = static_cast<E>(x);
  }

  /// A value the target already holds by construction (a configured
  /// count, a name, a geometry), carried as @p Wire. On restore an image
  /// with another value throws.
  template <class Wire, class T>
  void expect(std::string_view name, const T& have) {
    const Wire want = static_cast<Wire>(have);
    Wire got = want;
    field(name, got);
    if (got != want) {
      fail("'" + std::string(name) + "' is " + show(got) +
           " in the image, " + show(want) + " here");
    }
  }

  /// A list length carried as @p Count. On restore a length that the
  /// bytes left cannot hold (every entry takes at least one) throws.
  template <class Count = u32>
  std::size_t count(std::string_view name, std::size_t n) {
    auto c = static_cast<Count>(n);
    field(name, c);
    if (r_ != nullptr && c > r_->remaining()) {
      fail("'" + std::string(name) + "' declares " + std::to_string(c) +
           " entries in " + std::to_string(r_->remaining()) + " bytes");
    }
    return static_cast<std::size_t>(c);
  }

  /// A variable-length list: its length under @p name, then @p each for
  /// every entry. On restore the list is rebuilt at the saved length.
  template <class Count = u32, class List, class Each>
  void list(std::string_view name, List& list, Each&& each) {
    const std::size_t n = count<Count>(name, list.size());
    if (r_ != nullptr) {
      list.clear();
      list.resize(n);
    }
    for (auto& entry : list) each(entry);
  }

  /// Throws SnapshotError; on restore it names the section and byte.
  [[noreturn]] void fail(const std::string& why) const {
    if (r_ != nullptr) r_->fail(why);
    throw SnapshotError(why);
  }

 private:
  static std::string show(const std::string& s) { return "'" + s + "'"; }
  template <class T>
  static std::string show(const T& v) {
    return std::to_string(v);
  }

  StateWriter* w_ = nullptr;
  StateReader* r_ = nullptr;
};

/// Gives a class that declares `void state(Fields&, Args...)` the
/// save_state()/restore_state() pair its callers use: both run the one
/// field list. The list only reads members when saving.
template <class Derived>
class Stateful {
 public:
  template <class... Args>
  void save_state(StateWriter& w, Args&&... args) const {
    Fields f(w);
    const_cast<Derived&>(static_cast<const Derived&>(*this))
        .state(f, std::forward<Args>(args)...);
  }
  template <class... Args>
  void restore_state(StateReader& r, Args&&... args) {
    Fields f(r);
    static_cast<Derived&>(*this).state(f, std::forward<Args>(args)...);
  }
};

}  // namespace ouessant::snap
