// The snapshot subsystem, bottom to top:
//
//   1. State streams: every tagged field type round-trips; wrong name,
//      wrong tag, truncation, trailing garbage, a false words32 count and
//      a literal block longer than the bytes left all throw
//      SnapshotError naming the field; the paged words32 encoder emits
//      the dense encoder's bytes, and the block decoder hands out the
//      words a per-word decode yields. One field list saves the
//      bytes a hand-written save would, restores them, and refuses an
//      enum past its last value, a fixed field of another length and a
//      list longer than the bytes left.
//   2. Container: serialize/deserialize round-trips; corrupted bytes,
//      short images, bad magic, a format-version skew and a section size
//      that wraps the bounds check are rejected before any component
//      sees a byte; the CRC matches its bit-at-a-time definition. A
//      kernel section must name every registered component exactly once.
//   3. Per-component round-trips: SRAM contents + counters (also into
//      a dirty memory), RNG streams, latency histograms restore to
//      equal objects. The bulk SRAM paths, restore and load, leave the
//      words and pages that per-word pokes leave, and a truncated image
//      leaves the memory as it was. A FIFO holding a partial chunk
//      round-trips, and its image must not misstate its level.
//   4. The correctness bar of the refactor — snapshot at cycle C,
//      restore into a fresh stack, run to the end, and the clocks,
//      Stats::all(), outputs and latency histograms are bit-identical
//      to the run that never stopped: proven for E1 (IDCT sessions), a
//      serve_* service run, a fault-armed run (injector RNG streams and
//      firing log resume exactly), and a stack carrying every worker
//      kind (static, slot, linked and store-and-forward chains) frozen
//      mid store-and-forward head stage.
//   5. Warm-boot guard rails: restore into a differently-shaped stack
//      throws instead of corrupting, a warm-booted stack holds no more
//      SRAM pages than its template, and the fleet layer's fixed-seed
//      shard replay reproduces bit-for-bit.
//   6. Pinned images: two whole-stack images — serve_mixed point 0's
//      final state, and the every-worker-kind stack (farm, bitstream
//      cache, ICAP, both chain modes, injector, flight ring) frozen mid
//      store-and-forward head — keep their size and every section's
//      CRC-32, so a field list that drifts from the wire format fails
//      here naming the section. The three streaming RACs' sections are
//      pinned the same way, frozen inside a tap load and mid-block, and
//      each frozen stack restores and finishes bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "drv/chain.hpp"
#include "drv/session.hpp"
#include "exp/sweep.hpp"
#include "fifo/width_fifo.hpp"
#include "fleet/fleet.hpp"
#include "mem/sram.hpp"
#include "obs/flight.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/dpr.hpp"
#include "platform/soc.hpp"
#include "rac/configurable_fir.hpp"
#include "rac/fir.hpp"
#include "rac/idct.hpp"
#include "rac/passthrough.hpp"
#include "rac/vecadd.hpp"
#include "scenarios.hpp"
#include "sim/kernel.hpp"
#include "snap/snapshot.hpp"
#include "snap/state.hpp"
#include "svc/job.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

using snap::Snapshot;
using snap::SnapshotError;
using snap::StateReader;
using snap::StateWriter;
using snap::Words32Block;

// ---------------------------------------------------------------- streams --

TEST(StateStream, EveryFieldTypeRoundTrips) {
  StateWriter w;
  w.write_bool("flag", true);
  w.write_u8("byte", 0xAB);
  w.write_u32("word", 0xDEAD'BEEF);
  w.write_u64("dword", 0x0123'4567'89AB'CDEFull);
  w.write_double("real", -1.25);
  w.write_string("label", "ouessant");
  w.write_words32("w32", {0, 0, 0, 7, 7, 7, 1, 2, 3});
  w.write_words64("w64", {1ull << 40, 2, 3});
  w.write_bytes("blob", {0x00, 0xFF, 0x42});

  StateReader r(w.take(), "test");
  EXPECT_TRUE(r.read_bool("flag"));
  EXPECT_EQ(r.read_u8("byte"), 0xAB);
  EXPECT_EQ(r.read_u32("word"), 0xDEAD'BEEFu);
  EXPECT_EQ(r.read_u64("dword"), 0x0123'4567'89AB'CDEFull);
  EXPECT_EQ(r.read_double("real"), -1.25);
  EXPECT_EQ(r.read_string("label"), "ouessant");
  EXPECT_EQ(r.read_words32("w32"), (std::vector<u32>{0, 0, 0, 7, 7, 7, 1, 2, 3}));
  EXPECT_EQ(r.read_words64("w64"), (std::vector<u64>{1ull << 40, 2, 3}));
  EXPECT_EQ(r.read_bytes("blob"), (std::vector<u8>{0x00, 0xFF, 0x42}));
  r.expect_end();
}

TEST(StateStream, Words32RleHandlesRunsAndLiterals) {
  // Mostly-zero with literal islands — the SRAM shape the RLE exists for.
  std::vector<u32> v(4096, 0);
  v[100] = 1;
  v[101] = 2;
  for (std::size_t i = 2000; i < 2100; ++i) v[i] = 0x5555'5555;
  v.back() = 9;
  StateWriter w;
  w.write_words32("mem", v);
  EXPECT_LT(w.bytes().size(), v.size());  // actually compressed
  StateReader r(w.take(), "test");
  EXPECT_EQ(r.read_words32("mem"), v);
}

/// The blocks a streaming words32 read of @p count words hands out, as
/// (at, n, value, literal) rows.
std::vector<std::vector<u32>> words32_blocks(std::vector<u8> bytes,
                                             u32 count) {
  std::vector<std::vector<u32>> rows;
  StateReader r(std::move(bytes), "test");
  r.read_words32("m", count, [&rows](const Words32Block& b) {
    std::vector<u32> row{b.at, b.n, b.value};
    row.resize(3 + b.literal.size() / 4);
    snap::load_le32(b.literal, std::span(row).subspan(3));
    rows.push_back(std::move(row));
  });
  r.expect_end();
  return rows;
}

TEST(StateStream, PagedEncoderEmitsTheDenseBytes) {
  // Four-word pages, 22 words (not a page multiple): page 0 holds a 1
  // then zeros, page 1 is absent, pages 2/3 carry a run of 9s across
  // their boundary, page 4 is allocated but all zeros, and page 5's
  // words past the count are never read.
  const std::vector<u32> p0{1, 0, 0, 0}, p2{0, 0, 9, 9}, p3{9, 9, 0, 0},
      p4{0, 0, 0, 0}, p5{0, 0, 0xDEAD, 0xBEEF};
  const std::vector<const u32*> pages{p0.data(), nullptr,   p2.data(),
                                      p3.data(), p4.data(), p5.data()};
  const std::vector<u32> dense{1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9,
                               9, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0};
  StateWriter paged;
  paged.write_words32("m", 22, pages, 4);
  StateWriter flat;
  flat.write_words32("m", dense);
  EXPECT_EQ(paged.bytes(), flat.bytes());
  // A literal 1, then a zero run across the absent page, the 9s, zeros.
  EXPECT_EQ(words32_blocks(paged.take(), 22),
            (std::vector<std::vector<u32>>{
                {0, 1, 0, 1}, {1, 9, 0}, {10, 4, 9}, {14, 8, 0}}));

  // Seeded random sparse contents: runs of zeros, of a repeated word and
  // of random words, cut into pages of 4..32 words. An all-zero page is
  // absent or allocated at random; allocated pages carry garbage past
  // the count.
  util::Rng rng(20260415);
  for (int trial = 0; trial < 400; ++trial) {
    const u32 page_words = 4u << rng.below(4);
    const u32 count = 1 + rng.below(12 * page_words);
    std::vector<u32> words;
    while (words.size() < count) {
      const u32 len = 1 + rng.below(rng.chance(0.3) ? 3 * page_words : 6);
      const u32 kind = rng.below(4);
      for (u32 k = 0; k < len && words.size() < count; ++k) {
        words.push_back(kind < 2 ? 0u : kind == 2 ? 7u : rng.next_u32());
      }
    }
    const u32 n_pages = (count + page_words - 1) / page_words;
    std::vector<std::vector<u32>> store(n_pages);
    std::vector<const u32*> table(n_pages, nullptr);
    for (u32 p = 0; p < n_pages; ++p) {
      const auto first = words.begin() + p * page_words;
      const auto last = words.begin() + std::min((p + 1) * page_words, count);
      const bool zero = std::all_of(first, last, [](u32 w) { return w == 0; });
      if (zero && rng.chance(0.5)) continue;
      store[p].assign(first, last);
      store[p].resize(page_words, 0xA5A5'A5A5);
      table[p] = store[p].data();
    }
    StateWriter a;
    a.write_words32("m", words);
    StateWriter b;
    b.write_words32("m", count, table, page_words);
    ASSERT_EQ(a.bytes(), b.bytes()) << "trial " << trial;
    StateReader r(b.take(), "test");
    ASSERT_EQ(r.read_words32("m"), words) << "trial " << trial;
  }
}

/// The words of the words32 field at the start of @p bytes, decoded one
/// word at a time: the reference the block decoder must match.
std::vector<u32> per_word_decode(const std::vector<u8>& bytes) {
  std::size_t pos = 2 + std::size_t{bytes.at(1)};  // tag, name length, name
  const auto next = [&bytes, &pos] {
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= u32{bytes.at(pos++)} << (8 * i);
    return v;
  };
  const u32 count = next();
  std::vector<u32> words;
  while (words.size() < count) {
    const u32 block = next();
    if ((block & 0x8000'0000u) != 0) {
      for (u32 k = 0; k < (block & 0x7FFF'FFFFu); ++k) words.push_back(next());
    } else {
      const u32 value = next();
      for (u32 k = 0; k < block; ++k) words.push_back(value);
    }
  }
  EXPECT_EQ(pos, bytes.size());
  return words;
}

TEST(StateStream, BlockDecodeMatchesPerWordReference) {
  // Seeded random paged arrays: zero runs, runs of one word and random
  // words, some longer than a page, so literal and run blocks cross page
  // boundaries. Streamed block by block, each array must decode to the
  // words a per-word decode of the same bytes yields, and to the array.
  // Field names of 1 to 4 bytes start the literal words at every byte
  // offset mod 4, so a misaligned word load shows under UBSan.
  util::Rng rng(20261018);
  u32 literal_crossings = 0;
  u32 run_crossings = 0;
  std::array<u32, 4> literals_at_offset{};
  for (int trial = 0; trial < 400; ++trial) {
    const std::string name(1 + trial % 4, 'm');
    const u32 page_words = 4u << rng.below(4);
    const u32 count = 1 + rng.below(12 * page_words);
    std::vector<u32> words;
    while (words.size() < count) {
      const u32 len = 1 + rng.below(rng.chance(0.3) ? 3 * page_words : 6);
      const u32 kind = rng.below(3);
      const u32 repeated = rng.next_u32();
      for (u32 k = 0; k < len && words.size() < count; ++k) {
        words.push_back(kind == 0 ? 0u : kind == 1 ? repeated : rng.next_u32());
      }
    }
    const u32 n_pages = (count + page_words - 1) / page_words;
    std::vector<std::vector<u32>> store(n_pages);
    std::vector<const u32*> table(n_pages, nullptr);
    for (u32 p = 0; p < n_pages; ++p) {
      const auto first = words.begin() + p * page_words;
      const auto last = words.begin() + std::min((p + 1) * page_words, count);
      if (std::all_of(first, last, [](u32 w) { return w == 0; })) continue;
      store[p].assign(first, last);
      store[p].resize(page_words);
      table[p] = store[p].data();
    }
    StateWriter w;
    w.write_words32(name, count, table, page_words);
    const std::vector<u8> bytes = w.take();

    std::vector<u32> decoded;
    StateReader r(bytes, "test");
    r.read_words32(name, count, [&](const Words32Block& b) {
      ASSERT_EQ(b.at, decoded.size());
      if (b.at / page_words != (b.at + b.n - 1) / page_words) {
        ++(b.literal.empty() ? run_crossings : literal_crossings);
      }
      if (b.literal.empty()) {
        decoded.insert(decoded.end(), b.n, b.value);
      } else {
        // The block's bytes, where they lie in the stream.
        ASSERT_EQ(b.literal.size(), 4u * b.n);
        ASSERT_GE(b.literal.data(), bytes.data());
        ASSERT_LE(b.literal.data() + b.literal.size(),
                  bytes.data() + bytes.size());
        ++literals_at_offset[reinterpret_cast<std::uintptr_t>(
                                 b.literal.data()) % 4];
        decoded.resize(decoded.size() + b.n);
        snap::load_le32(b.literal, std::span(decoded).last(b.n));
      }
    });
    r.expect_end();
    ASSERT_EQ(decoded, per_word_decode(bytes)) << "trial " << trial;
    ASSERT_EQ(decoded, words) << "trial " << trial;
  }
  EXPECT_GT(literal_crossings, 100u);
  EXPECT_GT(run_crossings, 100u);
  for (const u32 n : literals_at_offset) EXPECT_GT(n, 50u);
}

/// A words32 field @p name declaring @p count words, followed by the raw
/// block words @p blocks (headers and payloads, as the wire holds them).
std::vector<u8> words32_field(std::string_view name, u32 count,
                              const std::vector<u32>& blocks) {
  StateWriter w;
  w.write_words32(name, {});
  std::vector<u8> bytes = w.take();
  bytes.resize(bytes.size() - 4);  // the empty field's count
  const auto put = [&bytes](u32 word) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<u8>(word >> (8 * i)));
  };
  put(count);
  for (const u32 word : blocks) put(word);
  return bytes;
}

TEST(StateStream, LiteralLongerThanTheBytesLeftIsASnapshotError) {
  // A literal block declaring 2^31-1 words with two words behind it. The
  // decoder must refuse it from its header, before its scratch grows to
  // 8 GiB and before the sink sees a word.
  constexpr u32 kCount = 0x7FFF'FFFFu;
  StateReader r(words32_field("m", kCount, {0x8000'0000u | kCount, 1, 2}),
                "test");
  EXPECT_THROW(r.read_words32("m", kCount,
                              [](const Words32Block&) { ADD_FAILURE(); }),
               SnapshotError);
}

TEST(StateStream, FalseWords32CountIsASnapshotError) {
  // The streaming read checks the declared count before any block.
  StateWriter w;
  w.write_words32("m", std::vector<u32>(8, 0));
  StateReader r(w.take(), "test");
  EXPECT_THROW(r.read_words32("m", 16,
                              [](const Words32Block&) { ADD_FAILURE(); }),
               SnapshotError);

  // A job payload declaring 2^32-1 words with no blocks after it is a
  // truncated field, not a 16 GiB allocation.
  StateWriter job;
  job.write_u64("id", 1);
  job.write_u8("kind", 0);
  job.write_u8("prio", 0);
  job.write_u64("arrival", 0);
  job.write_words32("payload", {});
  std::vector<u8> bytes = job.take();
  std::fill(bytes.end() - 4, bytes.end(), u8{0xFF});  // the word count
  const auto load_job = [](StateReader& r) {
    svc::Job j;
    snap::Fields f(r);
    svc::job_state(f, j, 1);
  };
  {
    StateReader jr(bytes, "job");  // borrows bytes, which grow below
    EXPECT_THROW(load_job(jr), SnapshotError);
  }

  // The same count backed by one run block of 2^31-1 zero words: eight
  // bytes that the dense reader must refuse before it inflates them into
  // 8 GiB. A job refuses any count but one block's.
  for (const u8 b : {0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x00, 0x00}) {
    bytes.push_back(b);
  }
  {
    StateReader jr(bytes, "job");
    EXPECT_THROW(load_job(jr), SnapshotError);
  }
  StateReader run(std::move(bytes), "job");
  (void)run.read_u64("id");
  (void)run.read_u8("kind");
  (void)run.read_u8("prio");
  (void)run.read_u64("arrival");
  EXPECT_THROW((void)run.read_words32("payload"), SnapshotError);
}

TEST(StateStream, WrongNameWrongTagAndTruncationThrow) {
  StateWriter w;
  w.write_u32("a", 1);
  const std::vector<u8> bytes = w.take();

  StateReader wrong_name(bytes, "test");
  EXPECT_THROW((void)wrong_name.read_u32("b"), SnapshotError);

  StateReader wrong_tag(bytes, "test");
  EXPECT_THROW((void)wrong_tag.read_u64("a"), SnapshotError);

  std::vector<u8> cut(bytes.begin(), bytes.end() - 2);
  StateReader truncated(cut, "test");
  EXPECT_THROW((void)truncated.read_u32("a"), SnapshotError);

  StateReader leftover(bytes, "test");
  EXPECT_THROW(leftover.expect_end(), SnapshotError);
}

/// A miniature stateful object: one field list of each kind.
struct Listed {
  enum class Phase : u8 { kIdle, kRun, kDone };
  Phase phase = Phase::kIdle;
  std::size_t cursor = 0;
  std::array<i32, 3> taps{};
  std::vector<std::pair<u64, std::string>> log;

  void state(snap::Fields& f) {
    f.field_as<u8>("phase", phase, Phase::kDone);
    f.field_as<u64>("cursor", cursor);
    f.field("taps", std::span(taps));
    f.list("log_count", log, [&f](std::pair<u64, std::string>& e) {
      f.field("at", e.first);
      f.field("what", e.second);
    });
  }
};

TEST(StateStream, OneFieldListRunsInBothDirections) {
  Listed a;
  a.phase = Listed::Phase::kRun;
  a.cursor = 7;
  a.taps = {-1, 2, -3};
  a.log = {{5, "start"}, {9, "stop"}};
  StateWriter w;
  snap::Fields save(w);
  a.state(save);

  // The list writes exactly the fields a hand-written save would.
  StateWriter by_hand;
  by_hand.write_u8("phase", 1);
  by_hand.write_u64("cursor", 7);
  by_hand.write_words32("taps", {0xFFFF'FFFFu, 2, 0xFFFF'FFFDu});
  by_hand.write_u32("log_count", 2);
  by_hand.write_u64("at", 5);
  by_hand.write_string("what", "start");
  by_hand.write_u64("at", 9);
  by_hand.write_string("what", "stop");
  EXPECT_EQ(w.bytes(), by_hand.bytes());

  Listed b;
  b.log = {{1, "stale"}};
  StateReader r(w.bytes(), "listed");
  snap::Fields restore(r);
  b.state(restore);
  r.expect_end();
  EXPECT_EQ(b.phase, a.phase);
  EXPECT_EQ(b.cursor, a.cursor);
  EXPECT_EQ(b.taps, a.taps);
  EXPECT_EQ(b.log, a.log);
}

TEST(StateStream, FieldListRejectsOutOfRangeRestores) {
  const auto restore = [](StateWriter& w) {
    Listed target;
    StateReader r(w.take(), "listed");
    snap::Fields f(r);
    target.state(f);
  };
  // An enum past its last value.
  StateWriter phase;
  phase.write_u8("phase", 3);
  EXPECT_THROW(restore(phase), SnapshotError);
  // A fixed-length field of another length.
  StateWriter taps;
  taps.write_u8("phase", 0);
  taps.write_u64("cursor", 0);
  taps.write_words32("taps", {1, 2});
  EXPECT_THROW(restore(taps), SnapshotError);
  // A list longer than the bytes left: refused before it is allocated.
  StateWriter list;
  list.write_u8("phase", 0);
  list.write_u64("cursor", 0);
  list.write_words32("taps", {1, 2, 3});
  list.write_u32("log_count", 0xFFFF'FFFFu);
  EXPECT_THROW(restore(list), SnapshotError);
}

// -------------------------------------------------------------- container --

Snapshot two_section_snapshot() {
  Snapshot s;
  StateWriter a;
  a.write_u32("x", 42);
  s.add("alpha", 1, a.take());
  StateWriter b;
  b.write_string("y", "beta-state");
  s.add("beta", 3, b.take());
  return s;
}

/// Re-seal @p image with a freshly computed CRC trailer, so tests can
/// corrupt specific header bytes without also tripping the CRC check.
std::vector<u8> reseal(std::vector<u8> image) {
  image.resize(image.size() - 4);
  const u32 crc = snap::crc32(image);
  for (int i = 0; i < 4; ++i) {
    image.push_back(static_cast<u8>(crc >> (8 * i)));
  }
  return image;
}

TEST(Container, SerializeDeserializeRoundTrips) {
  const Snapshot s = two_section_snapshot();
  EXPECT_EQ(s.serialized_size(), s.serialize().size());
  const Snapshot t = Snapshot::deserialize(s.serialize());
  ASSERT_EQ(t.sections().size(), 2u);
  EXPECT_TRUE(t.has("alpha"));
  EXPECT_EQ(t.section("beta").version, 3u);
  StateReader r(t.section("beta").bytes, "beta");
  EXPECT_EQ(r.read_string("y"), "beta-state");
}

TEST(Container, DuplicateAndMissingSectionsThrow) {
  Snapshot s = two_section_snapshot();
  EXPECT_THROW(s.add("alpha", 1, {}), SnapshotError);
  EXPECT_THROW((void)s.section("gamma"), SnapshotError);
}

TEST(Container, CorruptedByteIsRejected) {
  std::vector<u8> image = two_section_snapshot().serialize();
  image[image.size() / 2] ^= 0x01;
  EXPECT_THROW((void)Snapshot::deserialize(image), SnapshotError);
}

TEST(Container, ShortImageIsRejected) {
  const std::vector<u8> image = two_section_snapshot().serialize();
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, image.size() / 2,
                           image.size() - 1}) {
    const std::vector<u8> cut(image.begin(), image.begin() + keep);
    EXPECT_THROW((void)Snapshot::deserialize(cut), SnapshotError) << keep;
  }
}

TEST(Container, BadMagicIsRejected) {
  std::vector<u8> image = two_section_snapshot().serialize();
  image[0] = 'X';
  EXPECT_THROW((void)Snapshot::deserialize(reseal(image)), SnapshotError);
}

TEST(Container, FormatVersionSkewIsRejected) {
  std::vector<u8> image = two_section_snapshot().serialize();
  image[4] = static_cast<u8>(snap::kFormatVersion + 1);  // version u32, LE
  EXPECT_THROW((void)Snapshot::deserialize(reseal(image)), SnapshotError);
}

TEST(Container, WrappingSectionSizeIsRejected) {
  // alpha's size field, after the 12-byte header, its u16 name length,
  // the 5-byte name and its u32 version. A size of 2^64-16 wraps
  // `pos + size` below the image length, so a naive bounds check passes.
  std::vector<u8> image = two_section_snapshot().serialize();
  const std::size_t size_at = 12 + 2 + 5 + 4;
  ASSERT_EQ(image[size_at], two_section_snapshot().section("alpha").bytes.size());
  const u64 wrapping = ~u64{0} - 15;
  for (std::size_t i = 0; i < 8; ++i) {
    image[size_at + i] = static_cast<u8>(wrapping >> (8 * i));
  }
  EXPECT_THROW((void)Snapshot::deserialize(reseal(image)), SnapshotError);
}

TEST(Container, Crc32KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(snap::crc32(std::vector<u8>(check.begin(), check.end())),
            0xCBF4'3926u);
}

/// CRC-32 one bit at a time: the definition the eight-byte steps and the
/// bytewise tail must reproduce.
u32 crc32_bitwise(std::span<const u8> data) {
  u32 c = 0xFFFF'FFFFu;
  for (const u8 b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB8'8320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xFFFF'FFFFu;
}

TEST(Container, Crc32MatchesBitwiseAtEveryLengthAndOffset) {
  // Every length from 0 to 1,100 bytes at every offset mod 16: the table
  // loop alone below 64 bytes, above it the 64-byte fold (where the CPU
  // has one) with every tail of 16-byte blocks and of bytes. Then a
  // seeded buffer the size of a serve_mix image.
  util::Rng rng(20261019);
  std::vector<u8> buf(16 + 1100);
  for (u8& b : buf) b = static_cast<u8>(rng.next_u32());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const u8> data(buf.data() + offset, len);
      ASSERT_EQ(snap::crc32(data), crc32_bitwise(data))
          << "offset " << offset << ", length " << len;
    }
  }
  std::vector<u8> image(176 * 1024);
  for (u8& b : image) b = static_cast<u8>(rng.next_u32());
  EXPECT_EQ(snap::crc32(image), crc32_bitwise(image));
}

TEST(Container, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.snap";
  two_section_snapshot().save_file(path);
  const Snapshot t = Snapshot::load_file(path);
  EXPECT_TRUE(t.has("alpha"));
  EXPECT_THROW((void)Snapshot::load_file(path + ".does-not-exist"), SimError);
}

// ------------------------------------------------------- kernel section --

/// Ticks once after construction, then sleeps until woken.
class Idler : public sim::Component {
 public:
  using sim::Component::Component;
  [[nodiscard]] bool is_quiescent() const override { return true; }
};

/// Where the payload of the @p nth (0-based) field named @p field with
/// tag @p tag starts in @p bytes, searching from offset @p from on.
std::size_t field_payload(const std::vector<u8>& bytes, snap::Tag tag,
                          const std::string& field, std::size_t nth = 0,
                          std::size_t from = 0) {
  std::vector<u8> header{static_cast<u8>(tag),
                         static_cast<u8>(field.size())};
  header.insert(header.end(), field.begin(), field.end());
  auto at = bytes.begin() + static_cast<std::ptrdiff_t>(from);
  for (;; ++at) {
    at = std::search(at, bytes.end(), header.begin(), header.end());
    if (at == bytes.end()) {
      ADD_FAILURE() << "no field '" << field << "' #" << nth;
      return bytes.size();
    }
    if (nth-- == 0) {
      return static_cast<std::size_t>(at - bytes.begin()) + header.size();
    }
  }
}

/// The @p n-byte little-endian integer at @p at of @p bytes.
u64 get_le(const std::vector<u8>& bytes, std::size_t at, int n) {
  u64 v = 0;
  for (int i = 0; i < n && at + i < bytes.size(); ++i) {
    v |= u64{bytes[at + i]} << (8 * i);
  }
  return v;
}

/// Overwrites the @p n-byte little-endian integer at @p at with @p v.
void put_le(std::vector<u8>& bytes, std::size_t at, u64 v, int n) {
  for (int i = 0; i < n && at + i < bytes.size(); ++i) {
    bytes[at + i] = static_cast<u8>(v >> (8 * i));
  }
}

/// @p good with section @p name's bytes passed through @p edit,
/// re-serialized so the container's CRC holds and only the section's
/// own reader can catch the defect.
Snapshot with_section(const Snapshot& good, const std::string& name,
                      const std::function<void(std::vector<u8>&)>& edit) {
  Snapshot bad;
  for (const snap::Section& s : good.sections()) {
    std::vector<u8> bytes = s.bytes;
    if (s.name == name) edit(bytes);
    bad.add(s.name, s.version, bytes);
  }
  return Snapshot::deserialize(bad.serialize());
}

/// @p good with the kernel section's component list replaced by
/// @p entries (name, awake flag), re-serialized so the container's CRC
/// holds and only the kernel can catch the defect.
Snapshot with_component_list(
    const Snapshot& good,
    const std::vector<std::pair<std::string, bool>>& entries) {
  StateReader in(good.section("kernel").bytes, "kernel");
  StateWriter out;
  out.write_u64("cycle", in.read_u64("cycle"));
  const u32 stats = in.read_u32("stat_count");
  out.write_u32("stat_count", stats);
  for (u32 i = 0; i < stats; ++i) {
    out.write_string("stat", in.read_string("stat"));
    out.write_u64("value", in.read_u64("value"));
  }
  const u32 count = in.read_u32("component_count");
  for (u32 i = 0; i < count; ++i) {
    (void)in.read_string("component");
    (void)in.read_bool("awake");
  }
  out.write_u32("component_count", static_cast<u32>(entries.size()));
  for (const auto& [name, awake] : entries) {
    out.write_string("component", name);
    out.write_bool("awake", awake);
  }
  const u32 timers = in.read_u32("timer_count");
  out.write_u32("timer_count", timers);
  for (u32 i = 0; i < timers; ++i) {
    out.write_u64("due", in.read_u64("due"));
    out.write_string("component", in.read_string("component"));
  }
  in.expect_end();
  Snapshot bad;
  const std::vector<u8> kernel = out.take();
  for (const snap::Section& s : good.sections()) {
    bad.add(s.name, s.version, s.name == "kernel" ? kernel : s.bytes);
  }
  return Snapshot::deserialize(bad.serialize());
}

TEST(KernelSection, EachComponentMustAppearExactlyOnce) {
  sim::Kernel saved;
  Idler a(saved, "a");
  Idler b(saved, "b");
  saved.run(3);
  Snapshot good;
  saved.save_to(good);

  sim::Kernel target;
  Idler ta(target, "a");
  Idler tb(target, "b");
  target.run(5);
  tb.wake();
  const auto expect_rejected = [&](const Snapshot& bad,
                                   const std::string& reason) {
    try {
      target.restore_from(bad);
      ADD_FAILURE() << "accepted a kernel section with " << reason;
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
    // Rejected before anything changed.
    EXPECT_EQ(target.now(), 5u);
    EXPECT_FALSE(ta.awake());
    EXPECT_TRUE(tb.awake());
    EXPECT_EQ(target.awake_count(), 1u);
  };
  expect_rejected(with_component_list(good, {{"a", false}, {"a", false}}),
                  "'a' twice");
  expect_rejected(with_component_list(good, {{"a", false}, {"c", false}}),
                  "'c' is not registered");
  expect_rejected(with_component_list(good, {{"a", false}}),
                  "has 1 components");

  target.restore_from(good);
  EXPECT_EQ(target.now(), 3u);
  EXPECT_FALSE(tb.awake());
  EXPECT_EQ(target.awake_count(), 0u);
}

/// @p good with the u32 field @p field of its kernel section set to
/// @p value, re-serialized so the container's CRC holds.
Snapshot with_kernel_u32(const Snapshot& good, const std::string& field,
                         u32 value) {
  return with_section(good, "kernel", [&](std::vector<u8>& kernel) {
    put_le(kernel, field_payload(kernel, snap::Tag::kU32, field), value, 4);
  });
}

TEST(KernelSection, ForgedListLengthsAreSnapshotErrors) {
  sim::Kernel saved;
  Idler a(saved, "a");
  Idler b(saved, "b");
  saved.stats().add("events", 3);
  saved.run(3);
  b.wake_at(9);
  Snapshot good;
  saved.save_to(good);

  sim::Kernel target;
  Idler ta(target, "a");
  Idler tb(target, "b");
  target.run(5);
  tb.wake();
  // A length the section's bytes cannot hold is refused before anything
  // is allocated for it (it used to be reserved: std::bad_alloc).
  for (const std::string field : {"stat_count", "timer_count"}) {
    try {
      target.restore_from(with_kernel_u32(good, field, 0xFFFF'FFFFu));
      ADD_FAILURE() << "accepted " << field << " = 0xFFFFFFFF";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + field + "' declares"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(target.now(), 5u) << field;
    EXPECT_FALSE(ta.awake()) << field;
    EXPECT_TRUE(tb.awake()) << field;
    EXPECT_EQ(target.awake_count(), 1u) << field;
  }

  target.restore_from(good);
  EXPECT_EQ(target.now(), 3u);
  EXPECT_EQ(target.stats().get("events"), 3u);
  EXPECT_EQ(target.awake_count(), 0u);
  // Scheduler telemetry restarts at the restore: the target's own ticks
  // and its wake of b before it are not carried over.
  const sim::SchedulerStats& sched = target.sched_stats();
  EXPECT_EQ((std::vector<u64>{sched.ticks, sched.fast_forwards,
                              sched.fast_forward_cycles, sched.wakeups,
                              sched.sleeps}),
            std::vector<u64>(5, 0));
  target.run(7);  // the restored timer wakes b for the tick at cycle 9
  EXPECT_EQ(sched.wakeups, 1u);
}

// ----------------------------------------------------- component round-trips

TEST(ComponentState, SramRestoresContentsAndCounters) {
  mem::Sram a("sram", 0x4000'0000, 1u << 16, 1, 0);
  a.poke(0x4000'0000, 0x1111'2222);
  a.load(0x4000'1000, {1, 2, 3, 4, 5});
  (void)a.read_word(0x4000'1000);
  (void)a.write_word(0x4000'2000, 77);

  StateWriter w;
  a.save_state(w);
  mem::Sram b("sram", 0x4000'0000, 1u << 16, 1, 0);
  StateReader r(w.take(), "sram");
  b.restore_state(r);
  r.expect_end();

  EXPECT_EQ(b.dump(0x4000'0000, 1u << 14), a.dump(0x4000'0000, 1u << 14));
  EXPECT_EQ(b.reads(), a.reads());
  EXPECT_EQ(b.writes(), a.writes());
}

TEST(ComponentState, SramRestoreIntoDirtyMemoryZeroesUnsavedWords) {
  constexpr u32 kBytes = 8 * mem::Sram::kPageWords * 4;
  mem::Sram a("sram", 0, kBytes);
  a.load(4 * mem::Sram::kPageWords - 8, {1, 2, 3, 4});  // spans pages 0/1
  a.poke(kBytes - 4, 5);

  mem::Sram b("sram", 0, kBytes);
  b.fill(0xFFFF'FFFF);
  b.poke(0x40, 0);
  StateWriter w;
  a.save_state(w);
  StateReader r(w.take(), "sram");
  b.restore_state(r);
  r.expect_end();
  EXPECT_EQ(b.dump(0, kBytes / 4), a.dump(0, kBytes / 4));
  EXPECT_EQ(b.resident_bytes(), 3 * mem::Sram::kPageWords * 4u);
}

/// An Sram state stream for a memory named "sram" of @p words words whose
/// contents are the raw words32 blocks @p blocks.
std::vector<u8> sram_image(u32 words, const std::vector<u32>& blocks) {
  StateWriter w;
  w.write_string("name", "sram");
  w.write_u64("reads", 0);
  w.write_u64("writes", 0);
  std::vector<u8> bytes = w.take();
  const std::vector<u8> data = words32_field("data", words, blocks);
  bytes.insert(bytes.end(), data.begin(), data.end());
  return bytes;
}

/// Every word and the resident bytes of @p a equal those of @p b.
void expect_same_memory(const mem::Sram& a, const mem::Sram& b,
                        const std::string& what) {
  const u32 words = a.size_bytes() / 4;
  EXPECT_EQ(a.dump(a.base(), words), b.dump(b.base(), words)) << what;
  EXPECT_EQ(a.resident_bytes(), b.resident_bytes()) << what;
}

/// A memory of @p words words holding @p data from word @p at, stored by
/// per-word pokes, or by load() when @p bulk. When @p dirty, the first
/// word of pages 0 to 2 held a non-zero word before.
std::unique_ptr<mem::Sram> filled(u32 words, u32 at,
                                  const std::vector<u32>& data, bool bulk,
                                  bool dirty) {
  auto m = std::make_unique<mem::Sram>("sram", 0, words * 4);
  for (u32 page = 0; dirty && page < 3; ++page) {
    if (page * mem::Sram::kPageWords < words) {
      m->poke(4 * page * mem::Sram::kPageWords, 0xD1);
    }
  }
  if (bulk) {
    m->load(4 * at, data);
  } else {
    for (u32 i = 0; i < data.size(); ++i) m->poke(4 * (at + i), data[i]);
  }
  return m;
}

/// Checks that load() of @p data at word @p at, into a fresh memory and
/// over old words, and a restore of @p image into a memory holding other
/// words, leave the words and pages that per-word pokes leave. An empty
/// @p image restores the poked memory's own save.
void expect_bulk_paths_match_pokes(const std::string& what, u32 words,
                                   u32 at, const std::vector<u32>& data,
                                   std::vector<u8> image = {}) {
  for (const bool dirty : {false, true}) {
    expect_same_memory(*filled(words, at, data, true, dirty),
                       *filled(words, at, data, false, dirty),
                       what + (dirty ? ": load over old words" : ": load"));
  }
  const auto poked = filled(words, at, data, false, false);
  if (image.empty()) {
    StateWriter w;
    poked->save_state(w);
    image = w.take();
  }
  mem::Sram restored("sram", 0, words * 4);
  restored.poke(4 * (words - 1), 0xFFFF'FFFF);
  StateReader r(image, "sram");
  restored.restore_state(r);
  r.expect_end();
  expect_same_memory(restored, *poked, what + ": restore");
}

TEST(ComponentState, SramBulkPathsMatchPerWordPokes) {
  constexpr u32 kPage = mem::Sram::kPageWords;
  // A literal [5, 6, 0, 0, 0] across pages 0/1: its all-zero segment on
  // absent page 1 allocates nothing.
  expect_bulk_paths_match_pokes(
      "zero literal segment", 3 * kPage, kPage - 2, {5, 6, 0, 0, 0},
      sram_image(3 * kPage, {kPage - 2, 0, 0x8000'0005u, 5, 6, 0, 0, 0,
                             2 * kPage - 3, 0}));
  // A run of 0xC0DE from the last four words of page 0 to the first four
  // of page 2 allocates all three pages.
  expect_bulk_paths_match_pokes(
      "run over three pages", 3 * kPage, kPage - 4,
      std::vector<u32>(kPage + 8, 0xC0DE),
      sram_image(3 * kPage,
                 {kPage - 4, 0, kPage + 8, 0xC0DE, kPage - 4, 0}));
  // A 16 MB image that is one zero run allocates no page.
  constexpr u32 k16M = 4u << 20;
  expect_bulk_paths_match_pokes("16 MB of zeros", k16M, 0,
                                std::vector<u32>(k16M, 0),
                                sram_image(k16M, {k16M, 0}));

  // Seeded random contents over six pages, saved by the encoder.
  util::Rng rng(20261019);
  for (int trial = 0; trial < 40; ++trial) {
    const u32 at = rng.below(2 * kPage);
    std::vector<u32> data(rng.below(4 * kPage));
    for (std::size_t i = 0; i < data.size();) {
      const u32 len = 1 + rng.below(rng.chance(0.2) ? 2 * kPage : 8);
      const u32 kind = rng.below(3);
      const u32 repeated = rng.next_u32();
      for (u32 k = 0; k < len && i < data.size(); ++k, ++i) {
        data[i] = kind == 0 ? 0u : kind == 1 ? repeated : rng.next_u32();
      }
    }
    expect_bulk_paths_match_pokes("trial " + std::to_string(trial),
                                  6 * kPage, at, data);
  }
}

TEST(ComponentState, SramRestoreOfATruncatedLiteralChangesNothing) {
  constexpr u32 kWords = 2 * mem::Sram::kPageWords;
  mem::Sram m("sram", 0, kWords * 4);
  m.poke(4, 9);
  // One literal block declaring every word, with two words behind it.
  StateReader r(sram_image(kWords, {0x8000'0000u | kWords, 1, 2}), "sram");
  EXPECT_THROW(m.restore_state(r), SnapshotError);
  EXPECT_EQ(m.dump(0, 3), (std::vector<u32>{0, 9, 0}));
  EXPECT_EQ(m.resident_bytes(), mem::Sram::kPageWords * 4u);
}

TEST(ComponentState, FifoLevelMustMatchItsStorage) {
  // A 24 -> 40-bit FIFO holding one 24-bit chunk, less than one read.
  const fifo::WidthFifoConfig cfg{
      .wr_width = 24, .rd_width = 40, .capacity_bits = 240};
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", cfg);
  f.write(0xAB'CDEF);
  k.tick();
  ASSERT_EQ(f.level_bits(), 24u);
  StateWriter w;
  f.save_state(w);
  const std::vector<u8> image = w.take();

  sim::Kernel k2;
  fifo::WidthFifo g(k2, "f", cfg);
  StateReader r(image, "f");
  g.restore_state(r);
  r.expect_end();
  EXPECT_EQ(g.level_bits(), 24u);
  EXPECT_TRUE(g.empty());
  g.write(0x12'3456);
  k2.tick();
  EXPECT_EQ(g.read(), 0x34'56AB'CDEFull);  // LSB first

  // The level field: tag, name length, "level", then its u32.
  const std::array<u8, 7> field{static_cast<u8>(snap::Tag::kU32), 5,
                                'l', 'e', 'v', 'e', 'l'};
  const auto at = std::search(image.begin(), image.end(), field.begin(),
                              field.end()) -
                  image.begin() + field.size();
  ASSERT_LT(static_cast<std::size_t>(at), image.size());
  ASSERT_EQ(image[at], 24);
  // Too high, empty() would be false over a partial chunk; too low,
  // full() would accept writes past the capacity.
  for (const u8 forged : {96, 16}) {
    std::vector<u8> bad = image;
    bad[at] = forged;
    sim::Kernel k3;
    fifo::WidthFifo h(k3, "f", cfg);
    StateReader rb(bad, "f");
    EXPECT_THROW(h.restore_state(rb), SnapshotError) << int{forged};
  }
}

TEST(ComponentState, RngStreamResumesExactly) {
  util::Rng a(12345);
  for (int i = 0; i < 17; ++i) (void)a.next_u32();
  const auto state = a.state();
  util::Rng b(999);  // different seed, state overwritten by restore
  b.restore_state(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u32(), b.next_u32()) << i;
  }
}

TEST(ComponentState, LatencyStatsRestoreToEqualHistograms) {
  svc::LatencyStats a;
  for (u64 s : {5ull, 1ull, 100ull, 42ull, 42ull, 7ull}) a.add(s);
  StateWriter w;
  a.save_state(w, "e2e");
  svc::LatencyStats b;
  StateReader r(w.take(), "test");
  b.restore_state(r, "e2e");
  EXPECT_EQ(b.samples(), a.samples());
  EXPECT_EQ(b.mean(), a.mean());
  EXPECT_EQ(b.percentile(95), a.percentile(95));
}

// ------------------------------------------------- E1 mid-run bit-identity --

/// The E1 stack of tests/test_determinism.cpp: SoC + IDCT OCP + session.
struct E1Stack {
  platform::Soc soc;
  rac::IdctRac idct;
  core::Ocp& ocp;
  drv::OcpSession session;

  E1Stack()
      : idct(soc.kernel(), "idct"),
        ocp(soc.add_ocp(idct)),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = 0x4000'0000,
                 .in_base = 0x4001'0000,
                 .out_base = 0x4002'0000,
                 .in_words = 64,
                 .out_words = 64}) {}

  void install() {
    session.install(core::build_stream_program(
        {.in_words = 64, .out_words = 64, .burst = 64}));
  }

  /// Invocations [@p first, @p last): alternating poll/IRQ completion
  /// with an idle gap, same recipe as run_e1_idct.
  void run_frames(int first, int last, util::Rng& rng,
                  std::vector<u32>* output) {
    for (int i = first; i < last; ++i) {
      std::vector<u32> in(64);
      for (auto& word : in) {
        word = static_cast<u32>(rng.range(-1024, 1023));
      }
      session.put_input(in);
      if (i % 2 == 0) {
        session.run_poll();
      } else {
        session.run_irq();
      }
      const auto out = session.get_output();
      output->insert(output->end(), out.begin(), out.end());
      soc.cpu().spend(777);
    }
  }
};

TEST(MidRun, E1RestoredRunIsBitIdentical) {
  // Straight run: 4 invocations; snapshot taken (passively) after 2.
  E1Stack a;
  a.install();
  util::Rng rng_a(21);
  std::vector<u32> out_a;
  a.run_frames(0, 2, rng_a, &out_a);

  Snapshot image = a.soc.snapshot();
  {
    // The session's driver shadow and the workload RNG live outside the
    // SoC walk — carry them as extra sections, as a host harness would.
    StateWriter w;
    a.session.driver().save_state(w);
    image.add("test_drv", 1, w.take());
    StateWriter w2;
    const auto st = rng_a.state();
    w2.write_words32("rng", {st[0], st[1], st[2], st[3]});
    image.add("test_rng", 1, w2.take());
  }
  // Serialize/deserialize in the middle: what continues is the on-disk
  // image, not the live object.
  const Snapshot reloaded = Snapshot::deserialize(image.serialize());

  a.run_frames(2, 4, rng_a, &out_a);
  const Cycle end_a = a.soc.kernel().now();
  const std::map<std::string, u64> stats_a = a.soc.kernel().stats().all();

  // Restored run: fresh identical stack, restore, run the back half.
  E1Stack b;
  b.soc.restore(reloaded);
  {
    StateReader r(reloaded.section("test_drv").bytes, "test_drv");
    b.session.driver().restore_state(r);
    r.expect_end();
    StateReader r2(reloaded.section("test_rng").bytes, "test_rng");
    const std::vector<u32> st = r2.read_words32("rng");
    ASSERT_EQ(st.size(), 4u);
    r2.expect_end();
    util::Rng rng_b(0);
    rng_b.restore_state({st[0], st[1], st[2], st[3]});
    std::vector<u32> out_b;
    b.run_frames(2, 4, rng_b, &out_b);
    // Bit-identity, speed counters included: both runs share one
    // configuration, and the counters themselves are snapshot-carried.
    EXPECT_EQ(b.soc.kernel().now(), end_a);
    EXPECT_EQ(b.soc.kernel().stats().all(), stats_a);
    EXPECT_EQ(out_b,
              std::vector<u32>(out_a.begin() + out_a.size() / 2, out_a.end()));
  }
}

TEST(MidRun, SocFingerprintMismatchIsRejectedBeforeMutation) {
  platform::Soc a;
  a.cpu().spend(100);
  const Snapshot snap = a.snapshot();

  platform::Soc smaller({.sram_bytes = 8u << 20});
  EXPECT_THROW(smaller.restore(snap), SnapshotError);

  // An extra OCP changes the component walk — also a fingerprint reject.
  platform::Soc with_ocp;
  rac::IdctRac idct(with_ocp.kernel(), "idct");
  (void)with_ocp.add_ocp(idct);
  EXPECT_THROW(with_ocp.restore(snap), SnapshotError);
  // The reject must come before any mutation: the target still runs.
  with_ocp.cpu().spend(10);
  EXPECT_EQ(with_ocp.kernel().now(), 10u);
}

TEST(MidRun, FalseSramWordCountIsRejected) {
  // A soc section whose framing is valid but whose SRAM data field
  // declares 2^32-1 words, followed by one run block of 16 zeros.
  platform::Soc a;
  const Snapshot good = a.snapshot();
  StateReader in(good.section("soc").bytes, "soc");
  StateWriter out;
  out.write_u8("bus_kind", in.read_u8("bus_kind"));
  out.write_u32("sram_bytes", in.read_u32("sram_bytes"));
  out.write_u64("sram_base", in.read_u64("sram_base"));
  out.write_u32("ocp_count", in.read_u32("ocp_count"));
  out.write_string("name", in.read_string("name"));
  out.write_u64("reads", in.read_u64("reads"));
  out.write_u64("writes", in.read_u64("writes"));
  out.write_words32("data", std::vector<u32>(16, 0));
  std::vector<u8> soc = out.take();
  std::fill(soc.end() - 12, soc.end() - 8, u8{0xFF});  // the word count
  Snapshot bad;
  for (const snap::Section& s : good.sections()) {
    bad.add(s.name, s.version, s.name == "soc" ? soc : s.bytes);
  }
  platform::Soc b;
  EXPECT_THROW(b.restore(bad), SnapshotError);
}

// ------------------------------------------- service mid-run bit-identity --

svc::ServiceConfig serve_config(bool faulty) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2}};
  cfg.queue_depth = 64;
  if (faulty) {
    cfg.faults.add({.kind = fault::FaultKind::kBusError, .prob = 0.002})
        .add({.kind = fault::FaultKind::kIrqDrop, .prob = 0.05});
    cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                                 .backoff_base = 2048,
                                 .watchdog_cycles = 16'384};
  }
  return cfg;
}

svc::WorkloadConfig serve_workload() {
  svc::WorkloadConfig wl;
  wl.jobs = 60;
  wl.mean_gap = 250.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
  wl.high_fraction = 0.25;
  wl.seed = svc::kDefaultServiceSeed;
  return wl;
}

void expect_reports_identical(const svc::ServiceReport& a,
                              const svc::ServiceReport& b) {
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.wait.samples(), b.wait.samples());
  EXPECT_EQ(a.service.samples(), b.service.samples());
  EXPECT_EQ(a.e2e.samples(), b.e2e.samples());
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retries, b.retries);
}

/// Every worker kind in one stack: a static IDCT OCP, a 1-slot greedy
/// DFT/FIR farm, a linked and a store-and-forward dequant->IDCT chain.
/// OCPs 0 static, 1 slot, 2/3 linked head/tail, 4/5 store-and-forward
/// head/tail. IRQ sources follow the same order, except that each chain
/// attaches its tail first (4 = store-and-forward tail, 5 = its head).
/// Faults, when armed, hit the store-and-forward chain only. The
/// watchdog is long because the ICAP outranks OCPs 2 and up on the bus,
/// so the linked chain behind the swapping farm needs ~29k cycles per
/// batch (ROADMAP.md).
svc::ServiceConfig mixed_config(bool faulty) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2}};
  cfg.queue_depth = 64;
  cfg.slots.count = 1;
  cfg.slots.candidates = {svc::JobKind::kDft, svc::JobKind::kFir};
  cfg.slots.initial = {svc::JobKind::kDft};
  cfg.slots.max_batch = 2;
  cfg.slots.policy = svc::SwapPolicy::kGreedyQueueDepth;
  cfg.chains = {
      svc::ChainSpec{.max_batch = 2, .mode = drv::ChainMode::kLinked},
      svc::ChainSpec{.max_batch = 2, .mode = drv::ChainMode::kStoreForward}};
  if (faulty) {
    cfg.faults
        .add({.kind = fault::FaultKind::kBusError, .ocp = 4, .prob = 0.01})
        .add({.kind = fault::FaultKind::kIrqDrop, .ocp = 5, .prob = 0.2});
    cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                                 .backoff_base = 2048,
                                 .watchdog_cycles = 100'000};
  }
  return cfg;
}

svc::WorkloadConfig mixed_workload() {
  svc::WorkloadConfig wl;
  wl.jobs = 80;
  wl.mean_gap = 250.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir,
              svc::JobKind::kJpegChain};
  wl.seed = svc::kDefaultServiceSeed;
  return wl;
}

/// Once a quarter of the mixed workload completed: true while the
/// store-and-forward head stage runs (the head OCP executes, the tail
/// has not been launched yet).
bool store_forward_head_in_flight(svc::OffloadService& s) {
  return s.dispatcher().completed() >= 20 &&
         s.soc().ocp(4).controller().running() &&
         !s.soc().ocp(5).controller().running();
}

/// How many steps @p cfg / @p wl's run takes until @p holds (all of
/// them when it never does).
std::size_t first_step_where(
    const svc::ServiceConfig& cfg, const svc::WorkloadConfig& wl,
    const std::function<bool(svc::OffloadService&)>& holds) {
  svc::OffloadService s(cfg);
  s.begin(wl);
  std::size_t steps = 0;
  for (; !s.finished() && !holds(s); ++steps) (void)s.step();
  return steps;
}

/// Shared skeleton of the mid-run restore proofs: one uninterrupted run
/// snapshots itself after each step count in @p steps (ascending) and
/// runs to the end; then every image restores into a fresh stack and
/// finishes there. Everything observable must be bit-identical. When
/// @p swapping is given, it receives the step counts whose image caught
/// a bitstream load in flight.
void check_serve_midrun(const svc::ServiceConfig& cfg,
                        const svc::WorkloadConfig& wl,
                        const std::vector<std::size_t>& steps,
                        std::vector<std::size_t>* swapping = nullptr) {
  svc::OffloadService a(cfg);
  a.begin(wl);
  std::vector<std::vector<u8>> images;
  std::size_t done = 0;
  for (const std::size_t at : steps) {
    for (; !a.finished() && done < at; ++done) (void)a.step();
    ASSERT_FALSE(a.finished())
        << "workload too small: nothing left to resume after " << at
        << " steps";
    images.push_back(a.snapshot().serialize());
    if (swapping != nullptr && a.slot_manager() != nullptr &&
        a.slot_manager()->swap_in_flight()) {
      swapping->push_back(at);
    }
  }
  while (!a.step()) {
  }
  const svc::ServiceReport rep_a = a.finish();
  const Cycle end_a = a.soc().kernel().now();
  const std::map<std::string, u64> stats_a = a.soc().kernel().stats().all();

  for (std::size_t i = 0; i < images.size(); ++i) {
    SCOPED_TRACE("snapshot after " + std::to_string(steps[i]) + " steps");
    svc::OffloadService b(cfg);
    b.restore(Snapshot::deserialize(images[i]));
    while (!b.step()) {
    }
    const svc::ServiceReport rep_b = b.finish();

    expect_reports_identical(rep_a, rep_b);
    EXPECT_EQ(b.soc().kernel().now(), end_a);
    EXPECT_EQ(b.soc().kernel().stats().all(), stats_a);

    if (cfg.faults.armed()) {
      // The injector's xoshiro streams and firing log resumed exactly:
      // the full logs agree event for event.
      ASSERT_NE(a.injector(), nullptr);
      ASSERT_NE(b.injector(), nullptr);
      const auto& log_a = a.injector()->log();
      const auto& log_b = b.injector()->log();
      ASSERT_EQ(log_a.size(), log_b.size());
      for (std::size_t e = 0; e < log_a.size(); ++e) {
        EXPECT_EQ(log_a[e].cycle, log_b[e].cycle) << e;
        EXPECT_EQ(log_a[e].kind, log_b[e].kind) << e;
        EXPECT_EQ(log_a[e].ocp, log_b[e].ocp) << e;
        EXPECT_EQ(log_a[e].spec_index, log_b[e].spec_index) << e;
      }
    }
  }
}

/// check_serve_midrun() with one image, taken at the first step before
/// which @p snapshot_now holds.
void check_serve_midrun(
    const svc::ServiceConfig& cfg, const svc::WorkloadConfig& wl,
    const std::function<bool(svc::OffloadService&)>& snapshot_now) {
  check_serve_midrun(cfg, wl, {first_step_where(cfg, wl, snapshot_now)});
}

TEST(MidRun, ServeRestoredRunIsBitIdentical) {
  int steps = 0;
  check_serve_midrun(serve_config(false), serve_workload(),
                     [&steps](svc::OffloadService&) { return steps++ == 5; });
}

TEST(MidRun, FaultArmedRestoredRunIsBitIdentical) {
  int steps = 0;
  check_serve_midrun(serve_config(true), serve_workload(),
                     [&steps](svc::OffloadService&) { return steps++ == 5; });
}

TEST(MidRun, EveryWorkerKindRestoredRunIsBitIdentical) {
  check_serve_midrun(mixed_config(false), mixed_workload(),
                     store_forward_head_in_flight);
}

TEST(MidRun, EveryWorkerKindFaultArmedRestoredRunIsBitIdentical) {
  check_serve_midrun(mixed_config(true), mixed_workload(),
                     store_forward_head_in_flight);
}

TEST(MidRun, EightRestoresOfOneFaultArmedRunAreBitIdentical) {
  // No field list re-arms a timer or wakes its component: the kernel
  // section alone restores the schedule. Eight images spread over one
  // fault-armed run of every worker kind, retries and bitstream loads
  // included, each finish bit-identical to the run that never stopped.
  const std::size_t total =
      first_step_where(mixed_config(true), mixed_workload(),
                       [](svc::OffloadService&) { return false; });
  std::vector<std::size_t> steps;
  for (std::size_t k = 1; k <= 8; ++k) steps.push_back(total * k / 9);
  std::vector<std::size_t> swapping;
  check_serve_midrun(mixed_config(true), mixed_workload(), steps, &swapping);
  EXPECT_FALSE(swapping.empty()) << "no image caught a bitstream load";
}

TEST(MidRun, MidSwapRestoredFarmRunIsBitIdentical) {
  // Snapshot taken while a bitstream is *in flight* on the ICAP: the
  // restored stack must resume the partial stream (words_done, the
  // bus-side burst state, the gated worker, the slot's swap target) and
  // finish bit-identically to the run that never stopped.
  const auto farm_config = [] {
    svc::ServiceConfig cfg;
    cfg.ocps.clear();
    cfg.queue_depth = 64;
    cfg.slots.count = 1;
    cfg.slots.candidates = {svc::JobKind::kIdct, svc::JobKind::kDft};
    cfg.slots.initial = {svc::JobKind::kIdct};
    cfg.slots.policy = svc::SwapPolicy::kGreedyQueueDepth;
    return cfg;
  };
  const auto farm_workload = [] {
    svc::WorkloadConfig wl;
    wl.jobs = 24;
    wl.mean_gap = 400.0;
    wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
    wl.seed = svc::kDefaultServiceSeed;
    return wl;
  };

  svc::OffloadService a(farm_config());
  a.begin(farm_workload());
  while (!a.finished() && !a.slot_manager()->swap_in_flight()) {
    (void)a.step();
  }
  ASSERT_TRUE(a.slot_manager()->swap_in_flight())
      << "workload never triggered a swap — nothing mid-flight to test";
  ASSERT_TRUE(a.icap()->busy());
  const std::vector<u8> image = a.snapshot().serialize();
  while (!a.step()) {
  }
  const svc::ServiceReport rep_a = a.finish();
  const Cycle end_a = a.soc().kernel().now();
  const std::map<std::string, u64> stats_a = a.soc().kernel().stats().all();

  svc::OffloadService b(farm_config());
  b.restore(Snapshot::deserialize(image));
  ASSERT_TRUE(b.slot_manager()->swap_in_flight());
  while (!b.step()) {
  }
  const svc::ServiceReport rep_b = b.finish();

  expect_reports_identical(rep_a, rep_b);
  EXPECT_EQ(rep_a.swaps_completed, rep_b.swaps_completed);
  EXPECT_EQ(rep_a.preemptions, rep_b.preemptions);
  EXPECT_GE(rep_a.swaps_completed, 1u);
  EXPECT_EQ(b.soc().kernel().now(), end_a);
  EXPECT_EQ(b.soc().kernel().stats().all(), stats_a);
}

/// The E7 region: identity and x2-gain candidates behind one OCP.
struct SlotRig {
  platform::Soc soc;
  rac::PassthroughRac identity;
  rac::ScaleRac doubler;
  core::ReconfigSlot slot;

  SlotRig()
      : identity(soc.kernel(), "identity", 32, 32, 0),
        doubler(soc.kernel(), "doubler", 32, util::Q(16).from_double(2.0)),
        slot(soc.kernel(), "slot", {&identity, &doubler}) {
    (void)soc.add_ocp(slot);
  }
};

TEST(MidRun, MidCountdownSlotSwapFinishesOnTime) {
  // request_swap's free-ICAP countdown (the E7 flow) sleeps on a wake
  // timer; only the kernel section carries it across a restore.
  SlotRig a;
  a.slot.request_swap(1);
  a.soc.kernel().run(5);
  ASSERT_TRUE(a.slot.reconfiguring());
  ASSERT_FALSE(a.slot.awake()) << "the countdown should sleep on its timer";
  const Snapshot image = Snapshot::deserialize(a.soc.snapshot().serialize());
  a.soc.kernel().run_until([&a] { return !a.slot.reconfiguring(); });

  SlotRig b;
  b.soc.restore(image);
  ASSERT_TRUE(b.slot.reconfiguring());
  b.soc.kernel().run_until([&b] { return !b.slot.reconfiguring(); });
  EXPECT_EQ(b.soc.kernel().now(), a.soc.kernel().now());
  EXPECT_EQ(b.soc.kernel().stats().all(), a.soc.kernel().stats().all());
  EXPECT_EQ(b.slot.active_index(), 1u);
  EXPECT_EQ(b.slot.reconfig_cycles_total(), a.slot.reconfig_cycles_total());
}

TEST(MidRun, RestoreIntoDifferentlyShapedServiceThrows) {
  svc::OffloadService a(serve_config(false));
  a.begin(serve_workload());
  (void)a.step();
  const Snapshot image = a.snapshot();

  svc::ServiceConfig other;
  other.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2}};
  svc::OffloadService b(std::move(other));
  EXPECT_THROW(b.restore(image), SnapshotError);

  // Injector presence is part of the shape too.
  svc::OffloadService c(serve_config(true));
  EXPECT_THROW(c.restore(image), SnapshotError);
}

TEST(MidRun, InjectorLogOfAnotherPlanIsRefused) {
  // Same spec count, other kinds: the count alone let a
  // serve_faulty_hang image warm-boot the serve_faulty_irq point.
  svc::OffloadService a(serve_config(true));
  (void)a.run(serve_workload());
  ASSERT_GT(a.injector()->injected(), 0u);
  const Snapshot image = a.snapshot();

  svc::ServiceConfig swapped = serve_config(true);
  std::swap(swapped.faults.specs[0], swapped.faults.specs[1]);
  svc::OffloadService b(std::move(swapped));
  try {
    b.restore(image);
    ADD_FAILURE() << "restored another plan's firing log";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("'spec_index'"), std::string::npos)
        << e.what();
  }
}

/// One chained worker in @p mode, chain_service's shape.
svc::ServiceConfig chain_config(drv::ChainMode mode) {
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  cfg.chains = {svc::ChainSpec{.max_batch = 2, .mode = mode}};
  return cfg;
}

TEST(MidRun, ChainImageOfTheOtherModeIsRefused) {
  // No fingerprint holds a chain's mode, but its head's shadows do. A
  // finished run's image is refused by the other mode, whose launch
  // protocol over this microcode can hang, and warm-boots its own,
  // reporting only the warm run's link traffic.
  svc::WorkloadConfig wl;
  wl.jobs = 8;
  wl.mean_gap = 800.0;
  wl.kinds = {svc::JobKind::kJpegChain};
  using drv::ChainMode;
  for (const auto& [mode, other, field] :
       {std::tuple{ChainMode::kLinked, ChainMode::kStoreForward, "'chain'"},
        std::tuple{ChainMode::kStoreForward, ChainMode::kLinked, "'ie'"}}) {
    SCOPED_TRACE(drv::chain_mode_name(mode));
    svc::OffloadService tmpl(chain_config(mode));
    (void)tmpl.run(wl);
    const Snapshot image = tmpl.snapshot();

    svc::OffloadService wrong(chain_config(other));
    try {
      wrong.restore(image);
      ADD_FAILURE() << "restored into " << drv::chain_mode_name(other);
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(field) + " is set"),
                std::string::npos)
          << e.what();
    }

    svc::OffloadService warm(chain_config(mode));
    warm.restore(image);
    warm.begin(wl, /*warm=*/true);
    while (!warm.step()) {
    }
    const svc::ServiceReport rep = warm.finish();
    EXPECT_EQ(rep.completed, wl.jobs);
    EXPECT_EQ(rep.link_words, mode == ChainMode::kLinked ? 64 * wl.jobs : 0);
    EXPECT_EQ(rep.link_busy_cycles, rep.link_words);
  }
}

TEST(MidRun, SectionVersionSkewIsRefusedBeforeAnyRestore) {
  svc::OffloadService a(serve_config(false));
  a.begin(serve_workload());
  (void)a.step();
  const Snapshot good = a.snapshot();
  ASSERT_GT(a.soc().kernel().now(), 0u);
  // The service's own section, the SoC's, the kernel's, and the last
  // component's: each is refused before the clock or any component moves.
  std::string last_component;
  for (const snap::Section& s : good.sections()) {
    if (s.name.starts_with("c:")) last_component = s.name;
  }
  ASSERT_FALSE(last_component.empty());
  for (const std::string& name : {std::string("svc"), std::string("soc"),
                                  std::string("kernel"), last_component}) {
    Snapshot bad;
    for (const snap::Section& s : good.sections()) {
      bad.add(s.name, s.name == name ? 9 : s.version, s.bytes);
    }
    svc::OffloadService b(serve_config(false));
    try {
      b.restore(bad);
      ADD_FAILURE() << "accepted section '" << name << "' at version 9";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("snapshot section '" + name +
                                           "' version 9 unsupported"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(b.soc().kernel().now(), 0u) << name;
  }
}

TEST(MidRun, WarmBootHoldsNoMorePagesThanItsTemplate) {
  // O(touched state): a restore allocates only the SRAM pages that hold
  // a non-zero word, never the whole 16 MB the SoC maps.
  svc::OffloadService tmpl(serve_config(false));
  (void)tmpl.run(serve_workload());
  const Snapshot image = tmpl.snapshot();
  svc::OffloadService clone(serve_config(false));
  clone.restore(image);
  const mem::Sram& sram = clone.soc().sram();
  EXPECT_GT(sram.resident_bytes(), 0u);
  EXPECT_LE(sram.resident_bytes(), tmpl.soc().sram().resident_bytes());
  EXPECT_LT(sram.resident_bytes(), sram.size_bytes() / 64);
}

// --------------------------------------------------- dispatcher section --
// A restore refuses a dispatcher image that no run produces, naming the
// field, before the first tick can act on it.

const std::string kDispatcher = "c:svc_dispatcher";

/// serve_config()'s service, begun on serve_workload() and stepped until
/// @p holds for its dispatcher section (which must happen).
Snapshot dispatcher_image(
    bool faulty, const std::function<bool(const std::vector<u8>&)>& holds) {
  svc::OffloadService s(serve_config(faulty));
  s.begin(serve_workload());
  while (!s.finished()) {
    Snapshot image = s.snapshot();
    if (holds(image.section(kDispatcher).bytes)) return image;
    (void)s.step();
  }
  ADD_FAILURE() << "no step of the run holds";
  return s.snapshot();
}

/// The u32 field @p field's @p nth value in a dispatcher section.
u32 section_u32(const std::vector<u8>& bytes, const std::string& field,
                std::size_t nth = 0) {
  return static_cast<u32>(
      get_le(bytes, field_payload(bytes, snap::Tag::kU32, field, nth), 4));
}

/// @p good's dispatcher section edited by @p edit must be refused with a
/// SnapshotError containing @p reason, while @p good itself restores.
void expect_dispatcher_refused(
    const Snapshot& good, const std::string& reason,
    const std::function<void(std::vector<u8>&)>& edit,
    const svc::ServiceConfig& cfg) {
  {
    svc::OffloadService ok(cfg);
    ok.restore(good);
  }
  svc::OffloadService target(cfg);
  try {
    target.restore(with_section(good, kDispatcher, edit));
    ADD_FAILURE() << "accepted a dispatcher image with " << reason;
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

/// One worker busy and one idle, jobs still scheduled.
bool one_worker_busy(const std::vector<u8>& d) {
  return (section_u32(d, "batch_size", 0) == 0) !=
             (section_u32(d, "batch_size", 1) == 0) &&
         section_u32(d, "schedule_left") >= 2;
}

TEST(DispatcherSection, PayloadOtherThanOneBlockIsRefused) {
  // It used to be staged whole by the next launch, over the batch slots
  // after it, and refused only at retire.
  const Snapshot good = dispatcher_image(false, one_worker_busy);
  expect_dispatcher_refused(
      good, "'payload' holds 65 words, expected 64",
      [](std::vector<u8>& d) {
        // One more word, as a one-word run block ahead of the others.
        const std::size_t at = field_payload(d, snap::Tag::kWords32,
                                             "payload");
        put_le(d, at, 65, 4);
        const std::vector<u8> run{1, 0, 0, 0, 7, 0, 0, 0};
        d.insert(d.begin() + static_cast<std::ptrdiff_t>(at + 4),
                 run.begin(), run.end());
      },
      serve_config(false));
}

TEST(DispatcherSection, JobWorkerOutsideTheWorkersIsRefused) {
  const Snapshot good = dispatcher_image(false, one_worker_busy);
  for (const auto& [worker, reason] :
       {std::pair<u32, std::string>{2, "'worker' is 2, outside [-1, 2)"},
        std::pair<u32, std::string>{0xFFFF'FFFEu, "'worker' is -2"}}) {
    expect_dispatcher_refused(
        good, reason,
        [worker](std::vector<u8>& d) {
          put_le(d, field_payload(d, snap::Tag::kU32, "worker"), worker, 4);
        },
        serve_config(false));
  }
}

TEST(DispatcherSection, InFlightMustCountTheBatchedJobs) {
  // Too large never drained (finished() stayed false until run_until's
  // guard threw); too small wrapped at the first retire.
  const Snapshot good = dispatcher_image(false, one_worker_busy);
  const u32 batched = section_u32(good.section(kDispatcher).bytes,
                                  "in_flight");
  ASSERT_GT(batched, 0u);
  for (const u32 forged : {batched + 1, batched - 1}) {
    expect_dispatcher_refused(
        good,
        "'in_flight' is " + std::to_string(forged) + " in the image, " +
            std::to_string(batched) + " here",
        [forged](std::vector<u8>& d) {
          put_le(d, field_payload(d, snap::Tag::kU32, "in_flight"), forged,
                 4);
        },
        serve_config(false));
  }
}

TEST(DispatcherSection, BusyMustMatchTheWorkersBatch) {
  // An idle worker's restored jobs were overwritten by its next launch;
  // a busy worker without jobs never retired.
  const Snapshot good = dispatcher_image(false, one_worker_busy);
  for (const std::size_t worker : {0u, 1u}) {
    const std::vector<u8>& d = good.section(kDispatcher).bytes;
    const bool busy = section_u32(d, "batch_size", worker) != 0;
    expect_dispatcher_refused(
        good, std::string("'busy' is ") + (busy ? "false" : "true"),
        [worker, busy](std::vector<u8>& d) {
          d[field_payload(d, snap::Tag::kBool, "busy", worker)] = !busy;
        },
        serve_config(false));
  }
}

TEST(DispatcherSection, BatchAboveMaxBatchIsRefused) {
  // A batch of two restored into a worker that takes one at most.
  const Snapshot good =
      dispatcher_image(false, [](const std::vector<u8>& d) {
        return section_u32(d, "batch_size", 0) == 2;
      });
  svc::ServiceConfig narrow = serve_config(false);
  narrow.ocps[0].max_batch = 1;
  svc::OffloadService target(narrow);
  try {
    target.restore(good);
    ADD_FAILURE() << "accepted a batch of 2 on a max_batch 1 worker";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("'batch_size' is 2"),
              std::string::npos)
        << e.what();
  }
}

TEST(DispatcherSection, ScheduleOutOfArrivalOrderIsRefused) {
  const Snapshot good = dispatcher_image(false, one_worker_busy);
  expect_dispatcher_refused(
      good, "'schedule_left' jobs out of arrival order",
      [](std::vector<u8>& d) {
        const std::size_t left =
            field_payload(d, snap::Tag::kU32, "schedule_left");
        put_le(d, field_payload(d, snap::Tag::kU64, "arrival", 0, left),
               ~u64{0}, 8);
      },
      serve_config(false));
}

TEST(DispatcherSection, RetriesOutOfReadyOrderAreRefused) {
  const Snapshot good =
      dispatcher_image(true, [](const std::vector<u8>& d) {
        return section_u32(d, "retry_count") >= 2;
      });
  expect_dispatcher_refused(
      good, "'retry_count' entries out of ready_at order",
      [](std::vector<u8>& d) {
        const std::size_t retries =
            field_payload(d, snap::Tag::kU32, "retry_count");
        put_le(d, field_payload(d, snap::Tag::kU64, "ready_at", 0, retries),
               ~u64{0}, 8);
      },
      serve_config(true));
}

// ------------------------------------------------------- flight section --
// A restore refuses a flight ring that no run produces, naming the
// field: to_json writes each event's phase byte raw and names its track
// by tid, and the ring's cursor moves only once the ring is full.

constexpr std::size_t kRing = 4096;

/// serve_config()'s service restored from @p image with a kRing-event
/// flight recorder attached, as the saved stack had.
void restore_with_flight(const Snapshot& image) {
  svc::OffloadService s(serve_config(false));
  obs::FlightRecorder flight(s.soc().kernel(), kRing);
  s.attach_flight_recorder(flight);
  s.restore(image);
}

/// serve_config()'s service stepped until its ring holds events but is
/// not yet full.
Snapshot flight_image() {
  svc::OffloadService s(serve_config(false));
  obs::FlightRecorder flight(s.soc().kernel(), kRing);
  s.attach_flight_recorder(flight);
  s.begin(serve_workload());
  while (flight.event_count() == 0) (void)s.step();
  EXPECT_LT(flight.event_count(), kRing);
  return s.snapshot();
}

/// @p good's svc section edited by @p edit must be refused with a
/// SnapshotError containing @p reason, while @p good itself restores.
void expect_flight_refused(const Snapshot& good, const std::string& reason,
                           const std::function<void(std::vector<u8>&)>& edit) {
  restore_with_flight(good);
  try {
    restore_with_flight(with_section(good, "svc", edit));
    ADD_FAILURE() << "accepted a flight ring with " << reason;
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }
}

TEST(FlightSection, PhaseTheTracerNeverEmitsIsRefused) {
  // A quote used to reach to_json raw, and ouessant_trace rejected the
  // dump; 'M' is the metadata phase, which only to_json writes.
  const Snapshot good = flight_image();
  for (const u8 ph : {u8{'"'}, u8{0x01}, u8{'M'}}) {
    expect_flight_refused(good, "'ph' is byte " + std::to_string(ph),
                          [ph](std::vector<u8>& d) {
                            d[field_payload(d, snap::Tag::kU8, "ph")] = ph;
                          });
  }
}

TEST(FlightSection, TidPastTheTracksIsRefused) {
  const Snapshot good = flight_image();
  const std::vector<u8>& svc = good.section("svc").bytes;
  const u64 tracks =
      get_le(svc, field_payload(svc, snap::Tag::kU64, "tracks"), 8);
  ASSERT_GT(tracks, 0u);
  expect_flight_refused(
      good,
      "'tid' is " + std::to_string(tracks) + ", past the " +
          std::to_string(tracks) + " tracks",
      [tracks](std::vector<u8>& d) {
        put_le(d, field_payload(d, snap::Tag::kU32, "tid"), tracks, 4);
      });
}

TEST(FlightSection, CursorOfARingNotYetFullIsRefused) {
  const Snapshot good = flight_image();
  expect_flight_refused(good, "'next' is 1 on a ring holding",
                        [](std::vector<u8>& d) {
                          put_le(d, field_payload(d, snap::Tag::kU64, "next"),
                                 1, 8);
                        });
}

// -------------------------------------------------------------- fleet layer

TEST(Fleet, WarmBootedShardsServeAndReproduce) {
  fleet::FleetConfig cfg;
  cfg.shards = 3;
  cfg.service.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct,
                                   .max_batch = 2}};
  cfg.service.queue_depth = 64;
  cfg.warmup.jobs = 8;
  cfg.warmup.mean_gap = 300.0;
  cfg.shard_load.jobs = 24;
  cfg.shard_load.mean_gap = 300.0;

  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  EXPECT_EQ(rep.shards, 3u);
  EXPECT_EQ(rep.total_jobs, 3u * 24u);
  EXPECT_EQ(rep.total_completed + rep.total_rejected + rep.total_failed,
            rep.total_jobs);
  EXPECT_GT(rep.total_completed, 0u);
  EXPECT_EQ(rep.e2e_sketch.count(), rep.total_completed);
  // Raw samples never accumulate: everything streams into the sketch.
  EXPECT_EQ(rep.peak_retained_samples, 0u);
  EXPECT_GT(rep.snapshot_bytes, 0u);
  EXPECT_TRUE(rep.reproducible);  // fixed-seed shard replay is bit-exact
  ASSERT_EQ(rep.shard_results.size(), 3u);
  // Distinct seeds: shard runs are not clones of each other.
  EXPECT_NE(rep.shard_results[0].digest, rep.shard_results[1].digest);
}

TEST(Fleet, RejectsEmptyFleet) {
  fleet::FleetConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW((void)fleet::run_fleet(cfg), ConfigError);
}

// ---------------------------------------------------------- pinned images --

struct PinnedSection {
  const char* name;
  u32 crc;
};

/// @p s must have @p bytes serialized bytes and exactly the sections of
/// @p pinned, in order, each with its CRC-32. A failure names every
/// section whose bytes moved and prints this build's table. Re-record a
/// value only together with a bump of that section's version.
void expect_pinned(const Snapshot& s, std::size_t bytes,
                   std::span<const PinnedSection> pinned) {
  EXPECT_EQ(s.serialize().size(), bytes);
  std::string moved;
  std::string table;
  for (std::size_t i = 0; i < s.sections().size(); ++i) {
    const snap::Section& sec = s.sections()[i];
    const u32 crc = snap::crc32(sec.bytes);
    if (i >= pinned.size() || sec.name != pinned[i].name ||
        crc != pinned[i].crc) {
      moved += " " + sec.name;
    }
    char line[96];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%08x},\n",
                  sec.name.c_str(), crc);
    table += line;
  }
  EXPECT_EQ(s.sections().size(), pinned.size());
  EXPECT_TRUE(moved.empty()) << "sections whose bytes moved:" << moved
                             << "\nthis build's sections:\n" << table;
}

TEST(SnapshotImage, ServeMixedPointZeroIsPinned) {
  static constexpr PinnedSection kSections[] = {
      {"kernel", 0xc029cc31},
      {"c:ahb", 0x61c8c1b1},
      {"c:svc_irqctl", 0x7841795d},
      {"c:svc_dispatcher", 0x148fbc4b},
      {"c:svc_idct0_rac", 0xc8031b85},
      {"c:ocp0.fifo_in0", 0x73ab3c53},
      {"c:ocp0.fifo_out0", 0x90fba93c},
      {"c:ocp0.ctrl", 0x84347197},
      {"c:svc_dft321_rac", 0x63893b19},
      {"c:ocp1.fifo_in0", 0xfcb52b04},
      {"c:ocp1.fifo_out0", 0x75e2c339},
      {"c:ocp1.ctrl", 0xe761a69e},
      {"c:svc_fir2_rac", 0xdae71ac7},
      {"c:ocp2.fifo_in0", 0x39f803eb},
      {"c:ocp2.fifo_out0", 0x2cb2b107},
      {"c:ocp2.ctrl", 0x67d917b5},
      {"c:svc_jpeg3_rac", 0x41e429d1},
      {"c:ocp3.fifo_in0", 0x10b2ae73},
      {"c:ocp3.fifo_out0", 0x4c646667},
      {"c:ocp3.ctrl", 0x5fe90798},
      {"soc", 0x7ea40e8f},
      {"svc", 0x67204f01},
  };
  exp::Registry registry;
  scenarios::register_all_scenarios(registry);
  const exp::ScenarioSpec* spec = registry.find("serve_mixed");
  ASSERT_NE(spec, nullptr);
  exp::SweepJob job{.spec = spec, .params = spec->points().at(0), .ctx = {}};
  job.ctx.seed = spec->default_seed;
  job.ctx.snapshot_path = ::testing::TempDir() + "pinned_serve_mixed_0.snap";
  const exp::Result r = exp::run_job(job);
  ASSERT_TRUE(r.ok) << r.error;
  std::ifstream in(job.ctx.snapshot_path, std::ios::binary | std::ios::ate);
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), 17'942u);
  const Snapshot s = Snapshot::load_file(job.ctx.snapshot_path);
  std::remove(job.ctx.snapshot_path.c_str());
  expect_pinned(s, 17'942, kSections);
}

TEST(SnapshotImage, EveryWorkerKindMidRunIsPinned) {
  static constexpr PinnedSection kSections[] = {
      {"kernel", 0xfa00db51},
      {"c:ahb", 0x84b037f9},
      {"c:svc_irqctl", 0x201fa2fe},
      {"c:svc_dispatcher", 0x6c705f7a},
      {"c:svc_idct0_rac", 0xed121676},
      {"c:ocp0.fifo_in0", 0xf8c838a4},
      {"c:ocp0.fifo_out0", 0xae5ce8a7},
      {"c:ocp0.ctrl", 0x6ce84487},
      {"c:svc_icap", 0x3c517389},
      {"c:svc_slots", 0x375e4dfc},
      {"c:svc_slot0_dft32", 0x05e0fe3f},
      {"c:svc_slot0_fir", 0xf0615cc8},
      {"c:svc_slot0", 0xe4361e65},
      {"c:ocp1.fifo_in0", 0x3988185b},
      {"c:ocp1.fifo_out0", 0xf45a63e2},
      {"c:ocp1.ctrl", 0xaa23eb86},
      {"c:svc_chain0_dq_rac", 0x58560a25},
      {"c:ocp2.fifo_in0", 0x44dbec1d},
      {"c:ocp2.fifo_out0", 0xeafa129b},
      {"c:ocp2.ctrl", 0x892c1e07},
      {"c:svc_chain0_idct_rac", 0x7f3538bc},
      {"c:ocp3.fifo_in0", 0xeafa129b},
      {"c:ocp3.fifo_out0", 0x39d3e007},
      {"c:ocp3.ctrl", 0x92486c72},
      {"c:svc_chain0_link", 0x19821a2f},
      {"c:svc_chain1_dq_rac", 0xa37b379e},
      {"c:ocp4.fifo_in0", 0x44dbec1d},
      {"c:ocp4.fifo_out0", 0x4d8c06a2},
      {"c:ocp4.ctrl", 0x03d3fa4e},
      {"c:svc_chain1_idct_rac", 0x05e0fe3f},
      {"c:ocp5.fifo_in0", 0xf45a63e2},
      {"c:ocp5.fifo_out0", 0xf45a63e2},
      {"c:ocp5.ctrl", 0x6ef505bc},
      {"c:svc_chain1_link", 0x56b4c524},
      {"soc", 0x8935028f},
      {"svc", 0xbc0d044f},
  };
  svc::ServiceConfig cfg = mixed_config(true);
  cfg.slots.cache_bytes = 64u << 10;
  svc::OffloadService service(std::move(cfg));
  obs::FlightRecorder flight(service.soc().kernel(), 64);
  service.attach_flight_recorder(flight);
  service.begin(mixed_workload());
  while (!service.finished() && !store_forward_head_in_flight(service)) {
    (void)service.step();
  }
  ASSERT_FALSE(service.finished());
  expect_pinned(service.snapshot(), 116'827, kSections);
}

/// A bare SoC with the three streaming RACs, one OCP each: a 16-tap
/// configurable FIR that reloads its taps from FIFO 1 before filtering,
/// a vector adder whose operands arrive in two bursts, and a 4-tap FIR
/// whose samples do. The adder and the FIR start after their first
/// burst; each tail waits out a NOP loop, so both stall mid-block.
struct StreamingStack {
  static constexpr u32 kN = 64;
  static constexpr u32 kTaps = 16;

  platform::Soc soc;
  rac::ConfigurableFirRac cfir{soc.kernel(), "cfir", kTaps, kN};
  rac::VecAddRac vadd{soc.kernel(), "vadd", kN};
  rac::FirRac fir{soc.kernel(), "fir",
                  {1 << 16, -(1 << 15), 1 << 14, 3 << 12}, kN};
  std::array<drv::OcpSession, 3> sessions{
      session(soc.add_ocp(cfir), 0), session(soc.add_ocp(vadd), 1),
      session(soc.add_ocp(fir), 2)};

  drv::OcpSession session(core::Ocp& ocp, u32 i) {
    const Addr base = 0x4000'0000 + i * 0x0010'0000;
    return {soc.cpu(), soc.sram(), ocp,
            {.prog_base = base,
             .in_base = base + 0x1'0000,
             .out_base = base + 0x2'0000,
             .in_words = kN,
             .out_words = kN}};
  }
  /// Bank 3 of OCP @p i: the coefficient set, or operand B.
  static Addr bank3(u32 i) { return 0x4003'0000 + i * 0x0010'0000; }

  /// Install the three programs, stage the data and start every OCP.
  void launch() {
    core::Program cfir_p;
    cfir_p.mvtc(3, 0, kTaps, 1).mvtc(1, 0, kN, 0).exec();
    cfir_p.mvfc(2, 0, kN, 0).eop();
    core::Program vadd_p;
    vadd_p.mvtc(1, 0, 8, 0).mvtc(3, 0, 4, 1).execs().nop().loop(3, 30);
    vadd_p.mvtc(1, 8, kN - 8, 0).mvtc(3, 4, kN - 4, 1);
    vadd_p.mvfc(2, 0, kN, 0).eop();
    core::Program fir_p;
    fir_p.mvtc(1, 0, 8, 0).execs().nop().loop(2, 30);
    fir_p.mvtc(1, 8, kN - 8, 0).mvfc(2, 0, kN, 0).eop();
    const core::Program* programs[] = {&cfir_p, &vadd_p, &fir_p};
    util::Rng rng(31);
    for (u32 i = 0; i < 3; ++i) {
      sessions[i].install(*programs[i]);
      sessions[i].driver().set_bank(3, bank3(i));
      std::vector<u32> in(kN);
      for (u32& w : in) w = util::to_word(rng.range(-(3 << 16), 3 << 16));
      sessions[i].put_input(in);
      std::vector<u32> b3(i == 0 ? kTaps : kN);
      for (u32& w : b3) w = util::to_word(rng.range(-(1 << 15), 1 << 15));
      soc.sram().load(bank3(i), b3);
    }
    for (drv::OcpSession& s : sessions) s.start_async();
  }

  /// Poll every OCP to completion; their outputs, in OCP order.
  std::vector<u32> finish() {
    std::vector<u32> out;
    for (drv::OcpSession& s : sessions) {
      s.driver().wait_done_poll();
      const std::vector<u32> o = s.get_output();
      out.insert(out.end(), o.begin(), o.end());
    }
    return out;
  }
};

/// The RAC sections of @p image, alone, as an image of their own.
Snapshot rac_sections(const Snapshot& image) {
  Snapshot racs;
  for (const snap::Section& sec : image.sections()) {
    if (sec.name == "c:cfir" || sec.name == "c:vadd" || sec.name == "c:fir") {
      racs.add(sec.name, sec.version, sec.bytes);
    }
  }
  return racs;
}

TEST(SnapshotImage, StreamingRacsMidBlockArePinned) {
  // Freeze 1 lands inside the configurable FIR's tap load. Freeze 2
  // lands inside the streamed block: the configurable FIR streams while
  // the adder waits for operand B and the FIR for samples. Each freeze
  // pins the three RAC sections; a fresh stack restored from the image
  // then finishes as the run that never stopped.
  struct Freeze {
    Cycle cycle;
    std::size_t bytes;
    PinnedSection pinned[3];
  };
  static constexpr Freeze kFreezes[] = {
      {260, 505,
       {{"c:cfir", 0xc81a3ed3}, {"c:vadd", 0x9f14db78}, {"c:fir", 0x1f0204cb}}},
      {305, 605,
       {{"c:cfir", 0x333a763f}, {"c:vadd", 0x2f07a087}, {"c:fir", 0xcea75df5}}},
  };
  for (const Freeze& f : kFreezes) {
    SCOPED_TRACE(f.cycle);
    StreamingStack a;
    a.launch();
    ASSERT_LT(a.soc.kernel().now(), f.cycle);
    a.soc.kernel().run(f.cycle - a.soc.kernel().now());
    const auto level = [&a](u32 ocp, u32 fifo) {
      return a.soc.ocp(ocp).input_fifos()[fifo]->level_bits();
    };
    const u32 cfir_out = a.soc.ocp(0).output_fifos()[0]->level_bits();
    ASSERT_TRUE(a.cfir.busy());
    if (&f == &kFreezes[0]) {  // taps partly loaded, no sample filtered
      EXPECT_GT(level(0, 1), 0u);
      EXPECT_LT(level(0, 1), StreamingStack::kTaps * 32);
      EXPECT_EQ(cfir_out, 0u);
    } else {  // mid-stream; the adder and the FIR starved mid-block
      EXPECT_EQ(level(0, 1), 0u);
      EXPECT_GT(cfir_out, 0u);
      ASSERT_TRUE(a.vadd.busy() && a.fir.busy());
      EXPECT_EQ(level(1, 1), 0u);
      EXPECT_EQ(level(2, 0), 0u);
    }
    const Snapshot image = Snapshot::deserialize(a.soc.snapshot().serialize());
    expect_pinned(rac_sections(image), f.bytes, f.pinned);

    const std::vector<u32> out_a = a.finish();
    StreamingStack b;
    b.soc.restore(image);
    EXPECT_EQ(b.finish(), out_a);
    EXPECT_EQ(b.soc.kernel().now(), a.soc.kernel().now());
    EXPECT_EQ(b.soc.kernel().stats().all(), a.soc.kernel().stats().all());
  }
}

}  // namespace
}  // namespace ouessant
