// Unit and property tests for the FIFO substrate: BitQueue and the
// width-adapting FIFO of paper Fig. 2.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "fifo/bit_queue.hpp"
#include "fifo/width_fifo.hpp"
#include "sim/kernel.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

// -------------------------------------------------------------- BitQueue --

TEST(BitQueue, PushPopSameWidth) {
  fifo::BitQueue q;
  q.push(0xAB, 8);
  q.push(0xCD, 8);
  EXPECT_EQ(q.size_bits(), 16u);
  EXPECT_EQ(q.pop(8), 0xABu);
  EXPECT_EQ(q.pop(8), 0xCDu);
  EXPECT_TRUE(q.empty());
}

TEST(BitQueue, SerializeLsbFirst) {
  fifo::BitQueue q;
  // Push one 48-bit word, pop as 3 x 16: LSB chunk first.
  q.push(0xABCD'1234'5678ull, 48);
  EXPECT_EQ(q.pop(16), 0x5678u);
  EXPECT_EQ(q.pop(16), 0x1234u);
  EXPECT_EQ(q.pop(16), 0xABCDu);
}

TEST(BitQueue, DeserializeLsbFirst) {
  fifo::BitQueue q;
  q.push(0x5678, 16);
  q.push(0x1234, 16);
  q.push(0xABCD, 16);
  EXPECT_EQ(q.pop(48), 0xABCD'1234'5678ull);
}

TEST(BitQueue, PeekDoesNotConsume) {
  fifo::BitQueue q;
  q.push(0x3, 2);
  EXPECT_EQ(q.peek(2), 0x3u);
  EXPECT_EQ(q.size_bits(), 2u);
  EXPECT_EQ(q.pop(2), 0x3u);
}

TEST(BitQueue, UnderflowThrows) {
  fifo::BitQueue q;
  q.push(1, 4);
  EXPECT_THROW(q.pop(8), SimError);
  EXPECT_THROW((void)q.peek(5), SimError);
}

TEST(BitQueue, WidthLimits) {
  fifo::BitQueue q;
  EXPECT_THROW(q.push(0, 0), SimError);
  EXPECT_THROW(q.push(0, 65), SimError);
  q.push(~u64{0}, 64);
  EXPECT_EQ(q.pop(64), ~u64{0});
}

TEST(BitQueue, MixedWidthProperty) {
  // Any sequence of pushes popped bit-by-bit reproduces the bit stream.
  util::Rng rng(77);
  fifo::BitQueue q;
  std::vector<u8> expected_bits;
  for (int i = 0; i < 200; ++i) {
    const unsigned w = 1 + rng.below(64);
    const u64 v = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
    q.push(v, w);
    for (unsigned b = 0; b < w; ++b) {
      expected_bits.push_back(static_cast<u8>((v >> b) & 1));
    }
  }
  for (std::size_t i = 0; i < expected_bits.size(); ++i) {
    ASSERT_EQ(q.pop(1), expected_bits[i]) << "bit " << i;
  }
}

/// The SimError text of @p op, or "" when it does not throw.
template <class Op>
std::string error_of(Op op) {
  try {
    op();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(BitQueue, DropEqualsPopWithoutTheValue) {
  // Two queues see the same random pushes, peeks and removals at widths
  // 1..64; one removes by pop, the other by drop. Their images agree
  // after every step.
  util::Rng rng(2024);
  fifo::BitQueue popped;
  fifo::BitQueue dropped;
  for (int step = 0; step < 4000; ++step) {
    const unsigned w = 1 + rng.below(64);
    switch (rng.below(3)) {
      case 0: {
        const u64 v =
            (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
        popped.push(v, w);
        dropped.push(v, w);
        break;
      }
      case 1:
        if (popped.size_bits() >= w) {
          ASSERT_EQ(popped.peek(w), dropped.peek(w)) << "step " << step;
        }
        break;
      default:
        if (popped.size_bits() >= w) {
          (void)popped.pop(w);
          dropped.drop(w);
        }
        break;
    }
    ASSERT_EQ(popped.size_bits(), dropped.size_bits()) << "step " << step;
    ASSERT_EQ(popped.pack_words(), dropped.pack_words()) << "step " << step;
  }

  // The same refusals, with the same texts, and nothing removed.
  fifo::BitQueue q;
  q.push(0x5, 4);
  for (const unsigned w : {0u, 5u, 65u}) {
    const std::string pop_error = error_of([&] { (void)q.pop(w); });
    EXPECT_FALSE(pop_error.empty()) << "width " << w;
    EXPECT_EQ(error_of([&] { q.drop(w); }), pop_error) << "width " << w;
  }
  EXPECT_EQ(error_of([&] { q.drop(5); }), "BitQueue: underflow");
  EXPECT_EQ(q.pack_words(), std::vector<u32>{0x5});
}

// ------------------------------------------------------------- WidthFifo --

TEST(WidthFifo, SameWidthRoundTrip) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 8 * 32});
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  f.write(0x11);
  EXPECT_TRUE(f.empty());  // registered: not visible until the edge
  k.tick();
  EXPECT_FALSE(f.empty());
  EXPECT_EQ(f.peek(), 0x11u);
  EXPECT_EQ(f.read(), 0x11u);
  k.tick();
  EXPECT_TRUE(f.empty());
}

TEST(WidthFifo, FullFlagIsRegistered) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 2 * 32});
  f.write(1);
  k.tick();
  f.write(2);
  k.tick();
  EXPECT_TRUE(f.full());
  // Simultaneous read while full: full() stays until the next edge.
  EXPECT_EQ(f.read(), 1u);
  EXPECT_TRUE(f.full());
  k.tick();
  EXPECT_FALSE(f.full());
}

TEST(WidthFifo, SimultaneousReadWrite) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 4 * 32});
  f.write(10);
  k.tick();
  // Same cycle: pop the head and push a new tail.
  EXPECT_EQ(f.read(), 10u);
  f.write(11);
  k.tick();
  EXPECT_EQ(f.level_bits(), 32u);
  EXPECT_EQ(f.read(), 11u);
}

TEST(WidthFifo, SerializeWideToNarrow) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "ser", {.wr_width = 48, .rd_width = 16,
                               .capacity_bits = 48 * 4});
  f.write(0xABCD'1234'5678ull);
  k.tick();
  EXPECT_EQ(f.read(), 0x5678u);
  k.tick();
  EXPECT_EQ(f.read(), 0x1234u);
  k.tick();
  EXPECT_EQ(f.read(), 0xABCDu);
  k.tick();
  EXPECT_TRUE(f.empty());
}

TEST(WidthFifo, DeserializeNarrowToWide) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "des", {.wr_width = 32, .rd_width = 48,
                               .capacity_bits = 96 * 4});
  f.write(0x2222'1111);
  k.tick();
  EXPECT_TRUE(f.empty());  // only 32 of 48 bits present
  f.write(0x4444'3333);
  k.tick();
  EXPECT_FALSE(f.empty());
  EXPECT_EQ(f.read(), 0x3333'2222'1111ull);
}

TEST(WidthFifo, UsageContractViolations) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 32});
  EXPECT_THROW(f.read(), SimError);   // read while empty
  f.write(1);
  EXPECT_THROW(f.write(2), SimError);  // two writes in one cycle
  k.tick();
  EXPECT_THROW(f.write(2), SimError);  // write while full
  EXPECT_EQ(f.read(), 1u);
  EXPECT_THROW(f.read(), SimError);    // two reads in one cycle
}

TEST(WidthFifo, FlushClearsEverything) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 32, .rd_width = 32,
                             .capacity_bits = 4 * 32});
  f.write(1);
  k.tick();
  f.flush();
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.level_bits(), 0u);
  f.write(5);
  k.tick();
  EXPECT_EQ(f.read(), 5u);
}

TEST(WidthFifo, ConfigValidation) {
  sim::Kernel k;
  EXPECT_THROW(fifo::WidthFifo(k, "bad", {.wr_width = 0, .rd_width = 32,
                                          .capacity_bits = 64}),
               ConfigError);
  EXPECT_THROW(fifo::WidthFifo(k, "bad", {.wr_width = 32, .rd_width = 72,
                                          .capacity_bits = 256}),
               ConfigError);
  EXPECT_THROW(fifo::WidthFifo(k, "bad", {.wr_width = 32, .rd_width = 48,
                                          .capacity_bits = 40}),
               ConfigError);
}

TEST(WidthFifo, StatsTracked) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 16, .rd_width = 16,
                             .capacity_bits = 16 * 8});
  for (int i = 0; i < 5; ++i) {
    f.write(static_cast<u64>(i));
    k.tick();
  }
  EXPECT_EQ(f.writes(), 5u);
  EXPECT_EQ(f.max_level_bits(), 80u);
  while (!f.empty()) {
    f.read();
    k.tick();
  }
  EXPECT_EQ(f.reads(), 5u);
}

/// Property sweep: for arbitrary width pairs, data pushed as wr-chunks and
/// popped as rd-chunks reassembles the same bit stream.
struct WidthCase {
  unsigned wr, rd;
};

class WidthPairs : public ::testing::TestWithParam<WidthCase> {};

TEST_P(WidthPairs, StreamIntegrity) {
  const auto [wr, rd] = GetParam();
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = wr, .rd_width = rd,
                             .capacity_bits = 64 * 64});
  util::Rng rng(wr * 131 + rd);

  // Push enough chunks that total bits divide evenly by rd width.
  const u64 lcm_bits = std::lcm<u64>(wr, rd);
  const u32 pushes = static_cast<u32>(lcm_bits / wr) * 5;
  fifo::BitQueue expected;
  for (u32 i = 0; i < pushes; ++i) {
    const u64 v = ((static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32()) &
                  (wr == 64 ? ~u64{0} : ((u64{1} << wr) - 1));
    f.write(v);
    expected.push(v, wr);
    k.tick();
  }
  const u32 pops = static_cast<u32>(static_cast<u64>(pushes) * wr / rd);
  for (u32 i = 0; i < pops; ++i) {
    ASSERT_FALSE(f.empty()) << "pop " << i;
    ASSERT_EQ(f.read(), expected.pop(rd)) << "pop " << i;
    k.tick();
  }
  EXPECT_TRUE(f.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, WidthPairs,
    ::testing::Values(WidthCase{32, 32}, WidthCase{32, 48}, WidthCase{48, 32},
                      WidthCase{32, 64}, WidthCase{64, 32}, WidthCase{8, 32},
                      WidthCase{32, 8}, WidthCase{24, 40}, WidthCase{1, 64},
                      WidthCase{64, 1}, WidthCase{16, 48}, WidthCase{48, 16}),
    [](const ::testing::TestParamInfo<WidthCase>& info) {
      return "wr" + std::to_string(info.param.wr) + "_rd" +
             std::to_string(info.param.rd);
    });

/// Randomized stress: a producer and consumer hammer the FIFO with random
/// interleavings, respecting full/empty; a shadow BitQueue checks every
/// popped chunk and the level bookkeeping.
TEST(WidthFifo, RandomizedStressWithBackpressure) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "f", {.wr_width = 24, .rd_width = 40,
                             .capacity_bits = 480});  // lcm-unfriendly sizes
  util::Rng rng(2024);
  fifo::BitQueue shadow;
  u64 pushed_bits = 0;
  u64 popped_bits = 0;

  for (int cycle = 0; cycle < 20'000; ++cycle) {
    if (rng.chance(0.6) && !f.full()) {
      const u64 v = rng.next_u32() & 0xFF'FFFFu;
      f.write(v);
      shadow.push(v, 24);
      pushed_bits += 24;
    }
    if (rng.chance(0.5) && !f.empty()) {
      ASSERT_EQ(f.read(), shadow.peek(40)) << "cycle " << cycle;
      shadow.pop(40);
      popped_bits += 40;
    }
    k.tick();
    ASSERT_EQ(f.level_bits(), pushed_bits - popped_bits) << cycle;
    ASSERT_LE(f.level_bits(), 480u);
  }
  EXPECT_GT(pushed_bits, 100'000u);  // the stress actually stressed
}

TEST(WidthFifoResources, SmallFifoUsesLuts) {
  sim::Kernel k;
  fifo::WidthFifo f(k, "small", {.wr_width = 32, .rd_width = 32,
                                 .capacity_bits = 16 * 32});
  const auto t = f.resource_tree().total();
  EXPECT_EQ(t.bram36, 0u);
  EXPECT_GT(t.luts, 0u);
}

TEST(WidthFifoResources, LargeFifoInfersBram) {
  // "FIFO memory is inferred as BRAM" — the paper's observation for the
  // accelerator-sized FIFOs.
  sim::Kernel k;
  fifo::WidthFifo f(k, "big", {.wr_width = 32, .rd_width = 32,
                               .capacity_bits = 512 * 32});
  const auto t = f.resource_tree().total();
  EXPECT_GE(t.bram36, 1u);
}

}  // namespace
}  // namespace ouessant
