// Unit tests for the interconnect models: timing, arbitration, decode,
// streaming, wait states, the protocol monitor, and the AXI-Lite variant.
#include <gtest/gtest.h>

#include "bus/interconnect.hpp"
#include "bus/monitor.hpp"
#include "mem/sram.hpp"
#include "sim/kernel.hpp"

namespace ouessant {
namespace {

struct BusFixture : public ::testing::Test {
  sim::Kernel kernel;
  bus::AhbBus ahb{kernel, "ahb"};
  mem::Sram sram{"sram", 0x4000'0000, 64 * 1024};

  void SetUp() override { ahb.connect_slave(sram, 0x4000'0000, 64 * 1024); }

  u64 complete(bus::BusMasterPort& p) {
    const Cycle t0 = kernel.now();
    kernel.run_until([&] { return !p.busy(); });
    return kernel.now() - t0;
  }
};

TEST_F(BusFixture, SingleWordWriteRead) {
  auto& m = ahb.connect_master("m");
  m.start_write(0x4000'0010, {0xCAFEBABE});
  complete(m);
  EXPECT_EQ(sram.peek(0x4000'0010), 0xCAFEBABEu);
  m.start_read(0x4000'0010, 1);
  complete(m);
  EXPECT_EQ(m.rdata0(), 0xCAFEBABEu);
}

TEST_F(BusFixture, SingleBeatTiming) {
  // 1 arbitration/address cycle + 1 data beat (0-wait SRAM write).
  auto& m = ahb.connect_master("m");
  m.start_write(0x4000'0000, {1});
  EXPECT_EQ(complete(m), 2u);
}

TEST_F(BusFixture, BurstTiming) {
  // 64-beat burst: 1 address phase + 64 data beats.
  auto& m = ahb.connect_master("m");
  std::vector<u32> data(64, 7);
  m.start_write(0x4000'0000, data);
  EXPECT_EQ(complete(m), 65u);
}

TEST_F(BusFixture, WaitStatesStretchBeats) {
  mem::Sram slow{"slow", 0x5000'0000, 1024, /*read_wait=*/2, /*write_wait=*/1};
  ahb.connect_slave(slow, 0x5000'0000, 1024);
  auto& m = ahb.connect_master("m");
  std::vector<u32> data(8, 3);
  m.start_write(0x5000'0000, data);
  EXPECT_EQ(complete(m), 1u + 8u * 2u);  // addr + 8 beats of (1 + 1 wait)
  m.start_read(0x5000'0000, 8);
  EXPECT_EQ(complete(m), 1u + 8u * 3u);
  EXPECT_EQ(m.rdata().size(), 8u);
  EXPECT_EQ(m.rdata()[0], 3u);
}

TEST_F(BusFixture, BurstSplitOver256Beats) {
  auto& m = ahb.connect_master("m");
  std::vector<u32> data(300, 9);
  m.start_write(0x4000'0000, data);
  // Two grants: 256 + 44 beats, 2 address phases.
  EXPECT_EQ(complete(m), 2u + 300u);
  EXPECT_EQ(sram.peek(0x4000'0000 + 299 * 4), 9u);
}

TEST_F(BusFixture, FixedPriorityArbitration) {
  auto& hi = ahb.connect_master("hi", 0);
  auto& lo = ahb.connect_master("lo", 5);
  std::vector<u32> a(16, 0xA);
  std::vector<u32> b(16, 0xB);
  lo.start_write(0x4000'0000, b);
  hi.start_write(0x4000'0100, a);
  kernel.run_until([&] { return !hi.busy() && !lo.busy(); });
  // The high-priority master must have finished first.
  EXPECT_LT(hi.stats().beats, 17u);
  EXPECT_EQ(sram.peek(0x4000'0100), 0xAu);
  EXPECT_EQ(sram.peek(0x4000'0000), 0xBu);
  // hi's burst (issued same time) completes in ~17 cycles; lo needs ~34.
  EXPECT_EQ(hi.stats().transactions, 1u);
  EXPECT_EQ(lo.stats().transactions, 1u);
}

TEST_F(BusFixture, DecodeErrors) {
  auto& m = ahb.connect_master("m");
  m.start_read(0x9999'0000, 1);
  EXPECT_THROW(kernel.run(4), SimError);
  EXPECT_FALSE(ahb.is_mapped(0x9999'0000));
  EXPECT_TRUE(ahb.is_mapped(0x4000'0000));
}

TEST_F(BusFixture, OverlappingSlaveRejected) {
  mem::Sram other{"other", 0x4000'8000, 4096};
  EXPECT_THROW(ahb.connect_slave(other, 0x4000'8000, 4096), ConfigError);
}

TEST_F(BusFixture, PortMisuse) {
  auto& m = ahb.connect_master("m");
  EXPECT_THROW(m.start_read(0x4000'0002, 1), SimError);  // unaligned
  EXPECT_THROW(m.start_read(0x4000'0000, 0), SimError);  // zero burst
  m.start_read(0x4000'0000, 1);
  EXPECT_THROW(m.start_read(0x4000'0000, 1), SimError);  // double start
  complete(m);
}

// Streaming source that is only ready every other cycle — verifies
// master-stall accounting.
class SlowSource : public bus::BeatSource {
 public:
  explicit SlowSource(u32 n) : left_(n) {}
  [[nodiscard]] bool beat_ready() const override { return ready_; }
  u32 take_beat() override {
    ready_ = false;
    --left_;
    return 0x5150 + left_;
  }
  void toggle() { ready_ = !ready_ || left_ == 0; }

 private:
  bool ready_ = false;
  u32 left_;
};

TEST_F(BusFixture, StreamedWriteWithStalls) {
  auto& m = ahb.connect_master("m");
  SlowSource src(4);
  m.start_write_stream(0x4000'0000, 4, src);
  for (int i = 0; i < 64 && m.busy(); ++i) {
    src.toggle();
    kernel.tick();
  }
  EXPECT_FALSE(m.busy());
  EXPECT_GT(m.stats().stall_cycles, 0u);
  EXPECT_EQ(sram.peek(0x4000'0000), 0x5150u + 3u);
  EXPECT_EQ(sram.peek(0x4000'000C), 0x5150u + 0u);
}

class CountingSink : public bus::BeatSink {
 public:
  [[nodiscard]] bool beat_space() const override { return true; }
  void put_beat(u32 d) override { got.push_back(d); }
  std::vector<u32> got;
};

TEST_F(BusFixture, StreamedRead) {
  sram.load(0x4000'0040, {10, 11, 12, 13});
  auto& m = ahb.connect_master("m");
  CountingSink sink;
  m.start_read_stream(0x4000'0040, 4, sink);
  complete(m);
  EXPECT_EQ(sink.got, (std::vector<u32>{10, 11, 12, 13}));
}

TEST_F(BusFixture, TransactionLogAndMonitor) {
  obs::EventTracer tracer(kernel);
  ahb.set_tracer(&tracer);
  auto& m = ahb.connect_master("m");
  m.start_write(0x4000'0000, {1, 2, 3});
  complete(m);
  m.start_read(0x4000'0000, 2);
  complete(m);
  const std::vector<bus::TxnRecord> log = bus::transactions(tracer, ahb);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].write);
  EXPECT_EQ(log[0].master, "m");
  EXPECT_EQ(log[0].addr, 0x4000'0000u);
  EXPECT_EQ(log[0].beats, 3u);
  EXPECT_FALSE(log[1].write);
  EXPECT_EQ(log[1].beats, 2u);
  EXPECT_LT(log[0].end, log[1].start);

  const auto report = bus::check_log(log, ahb.timing());
  EXPECT_TRUE(report.ok) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v + "\n";
    return all;
  }();
}

TEST(Monitor, FlagsBadRecords) {
  bus::BusTimingConfig timing{};
  std::vector<bus::TxnRecord> log;
  log.push_back({.start = 10, .end = 10, .master = "m", .addr = 0x2,
                 .write = true, .beats = 1});  // unaligned + too fast
  const auto r = bus::check_log(log, timing);
  EXPECT_FALSE(r.ok);
  EXPECT_GE(r.violations.size(), 2u);
}

TEST(Monitor, FlagsSameCycleCompletions) {
  bus::BusTimingConfig timing{};
  std::vector<bus::TxnRecord> log;
  log.push_back({.start = 0, .end = 5, .master = "a", .addr = 0,
                 .write = true, .beats = 2});
  log.push_back({.start = 1, .end = 5, .master = "b", .addr = 64,
                 .write = false, .beats = 2});
  EXPECT_FALSE(bus::check_log(log, timing).ok);
}

TEST(AxiLite, PerBeatAddressPhase) {
  sim::Kernel kernel;
  bus::AxiLiteBus axi(kernel, "axi");
  mem::Sram sram{"sram", 0, 4096};
  axi.connect_slave(sram, 0, 4096);
  auto& m = axi.connect_master("m");
  std::vector<u32> data(8, 1);
  m.start_write(0x0, data);
  const Cycle t0 = kernel.now();
  kernel.run_until([&] { return !m.busy(); });
  // Every beat pays its own address phase: 8 * (1 + 1) cycles.
  EXPECT_EQ(kernel.now() - t0, 16u);
  EXPECT_EQ(sram.peek(28), 1u);
}

TEST(AxiLite, RoundRobinArbitration) {
  sim::Kernel kernel;
  bus::AxiLiteBus axi(kernel, "axi");
  mem::Sram sram{"sram", 0, 4096};
  axi.connect_slave(sram, 0, 4096);
  auto& a = axi.connect_master("a");
  auto& b = axi.connect_master("b");
  std::vector<u32> da(8, 0xA);
  std::vector<u32> db(8, 0xB);
  a.start_write(0x000, da);
  b.start_write(0x100, db);
  kernel.run_until([&] { return !a.busy() && !b.busy(); });
  // Round robin: both finish within one beat-slot of each other.
  const u64 total = a.stats().beats + b.stats().beats;
  EXPECT_EQ(total, 16u);
  EXPECT_EQ(sram.peek(0x000), 0xAu);
  EXPECT_EQ(sram.peek(0x100), 0xBu);
}

TEST(BusIdle, IdleCyclesCounted) {
  sim::Kernel kernel;
  bus::AhbBus ahb(kernel, "ahb");
  mem::Sram sram{"sram", 0, 1024};
  ahb.connect_slave(sram, 0, 1024);
  kernel.run(10);
  EXPECT_EQ(ahb.idle_cycles(), 10u);
  EXPECT_EQ(ahb.busy_cycles(), 0u);
}

// ------------------------------------------------------------------ mem --

TEST(Sram, BackdoorAndRanges) {
  mem::Sram s{"s", 0x1000, 64};
  s.poke(0x1000, 42);
  EXPECT_EQ(s.peek(0x1000), 42u);
  s.load(0x1010, {1, 2, 3});
  EXPECT_EQ(s.dump(0x1010, 3), (std::vector<u32>{1, 2, 3}));
  s.fill(7);
  EXPECT_EQ(s.peek(0x103C), 7u);
  EXPECT_THROW((void)s.peek(0x0FFC), SimError);   // below base
  EXPECT_THROW((void)s.peek(0x1040), SimError);   // past end
  EXPECT_THROW((void)s.peek(0x1002), SimError);   // unaligned
  EXPECT_THROW(mem::Sram("bad", 0x1000, 10), ConfigError);
  EXPECT_THROW(mem::Sram("bad", 0x1002, 16), ConfigError);
}

TEST(Sram, AccessCountsAndWaits) {
  mem::Sram s{"s", 0, 64, 2, 1};
  auto r = s.read_word(0);
  EXPECT_EQ(r.wait_states, 2u);
  EXPECT_EQ(s.write_word(0, 5), 1u);
  EXPECT_EQ(s.reads(), 1u);
  EXPECT_EQ(s.writes(), 1u);
}

TEST(Sram, PagesHoldOnlyNonZeroWrites) {
  constexpr u32 kWords = 3 * mem::Sram::kPageWords;
  mem::Sram s{"s", 0, kWords * 4};
  EXPECT_EQ(s.write_word(0x8, 0), 0u);  // a zero write allocates nothing
  EXPECT_EQ(s.resident_bytes(), 0u);
  s.poke(mem::Sram::kPageWords * 4, 5);  // first word of page 1
  EXPECT_EQ(s.resident_bytes(), mem::Sram::kPageWords * 4u);
  EXPECT_EQ(s.read_word(mem::Sram::kPageWords * 4).data, 5u);
  EXPECT_EQ(s.read_word(0x8).data, 0u);  // an absent page reads zero
  s.fill(0xA5A5'A5A5);
  EXPECT_EQ(s.dump(0, kWords), std::vector<u32>(kWords, 0xA5A5'A5A5));
  s.fill(0);
  EXPECT_EQ(s.dump(0, kWords), std::vector<u32>(kWords, 0));
  EXPECT_EQ(s.resident_bytes(), 0u);
}

TEST(Rom, RejectsWrites) {
  mem::Rom rom{"rom", 0x0, {1, 2, 3, 4}};
  EXPECT_EQ(rom.read_word(0x8).data, 3u);
  EXPECT_THROW(rom.write_word(0x0, 9), SimError);
  EXPECT_EQ(rom.size_bytes(), 16u);
}

TEST(Rom, ContentsAcrossPagesReadBack) {
  // Over a page boundary into a partial last page, zeros mixed in.
  std::vector<u32> image(mem::Sram::kPageWords + 7);
  for (u32 i = 0; i < image.size(); ++i) image[i] = i % 3 == 0 ? 0 : i;
  mem::Rom rom{"rom", 0x1000, image};
  EXPECT_EQ(rom.dump(0x1000, static_cast<u32>(image.size())), image);
}

/// What @p f throws as SimError, or "" when it does not throw.
template <typename F>
std::string sim_error(F f) {
  try {
    f();
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(Sram, AddressErrorsNameTheAddressInHex) {
  mem::Rom rom{"rom", 0x1000, {1, 2, 3, 4}};
  EXPECT_EQ(sim_error([&] { (void)rom.write_word(0x1000, 9); }),
            "Rom rom: write to read-only memory at 0x00001000");
  mem::Sram s{"s", 0x1000, 64};
  EXPECT_EQ(sim_error([&] { (void)s.peek(0x1040); }),
            "Sram s: peek at 0x00001040 out of range");
  EXPECT_EQ(sim_error([&] { (void)s.read_word(0x1002); }),
            "Sram s: unaligned read at 0x00001002");
}

TEST(Sram, LoadPastTheEndThrowsAndWritesNothing) {
  constexpr u32 kWords = 2 * mem::Sram::kPageWords;
  mem::Sram s{"s", 0x1000, kWords * 4};
  // From 24 words before the end, 30 words: the poke of word 24 would
  // fail first, so that is the address named, and no word lands.
  const Addr at = 0x1000 + 4 * (kWords - 24);
  EXPECT_EQ(sim_error([&] { s.load(at, std::vector<u32>(30, 7)); }),
            "Sram s: poke at 0x00003000 out of range");
  EXPECT_EQ(s.dump(0x1000, kWords), std::vector<u32>(kWords, 0));
  EXPECT_EQ(s.resident_bytes(), 0u);
  // A bad first word is named as a poke would name it.
  EXPECT_EQ(sim_error([&] { s.load(0x0FFC, {1}); }),
            "Sram s: poke at 0x00000FFC out of range");
  EXPECT_EQ(sim_error([&] { s.load(0x1002, {1}); }),
            "Sram s: unaligned poke at 0x00001002");
  // The backdoor moves no access counter.
  s.load(at, std::vector<u32>(24, 7));
  EXPECT_EQ(s.peek(0x1000 + 4 * (kWords - 1)), 7u);
  EXPECT_EQ(s.reads(), 0u);
  EXPECT_EQ(s.writes(), 0u);
}

TEST(Sram, LoadReachesTheTopOfTheAddressSpace) {
  mem::Sram hi{"hi", 0xFFFF'F000, 0x1000};
  std::vector<u32> words(0x1000 / 4);
  for (u32 i = 0; i < words.size(); ++i) words[i] = i + 1;
  hi.load(0xFFFF'F000, words);
  EXPECT_EQ(hi.dump(0xFFFF'F000, 0x1000 / 4), words);
  EXPECT_EQ(hi.peek(0xFFFF'FFFC), 0x400u);
  // A memory declared past 2^32: the word after 0xFFFFFFFC would wrap to
  // address 0, so the load is refused whole.
  mem::Sram wide{"wide", 0xFFFF'F000, 0x2000};
  EXPECT_EQ(sim_error([&] { wide.load(0xFFFF'FFFC, {1, 2}); }),
            "Sram wide: poke at 0x00000000 out of range");
  EXPECT_EQ(wide.resident_bytes(), 0u);
}

TEST(BusMapping, SlaveAtTopOfAddressSpace) {
  // A region ending exactly at 2^32 is legal; decode must reach its last
  // word. (Regression: the seed's decode test `addr - base < size` was
  // fine, but connect_slave accepted wrapping regions — see below.)
  sim::Kernel k;
  bus::AhbBus ahb{k, "ahb"};
  mem::Sram hi{"hi", 0xFFFF'F000, 0x1000};
  ahb.connect_slave(hi, 0xFFFF'F000, 0x1000);
  auto& m = ahb.connect_master("m");
  m.start_write(0xFFFF'F000, {0x12345678});
  k.run_until([&] { return !m.busy(); });
  EXPECT_EQ(hi.peek(0xFFFF'F000), 0x12345678u);
  m.start_write(0xFFFF'FFFC, {0x9ABCDEF0});  // the very last word
  k.run_until([&] { return !m.busy(); });
  m.start_read(0xFFFF'FFFC, 1);
  k.run_until([&] { return !m.busy(); });
  EXPECT_EQ(m.rdata0(), 0x9ABCDEF0u);
}

TEST(BusMapping, RejectsRegionWrappingAddressSpace) {
  // base + size past 2^32 would alias low addresses in the (u32) decode
  // compare; the mapping must be refused up front.
  sim::Kernel k;
  bus::AhbBus ahb{k, "ahb"};
  mem::Sram hi{"hi", 0xFFFF'F000, 0x2000};
  EXPECT_THROW(ahb.connect_slave(hi, 0xFFFF'F000, 0x2000), ConfigError);
}

TEST(BusMapping, RejectsUnalignedOrEmptyRegion) {
  sim::Kernel k;
  bus::AhbBus ahb{k, "ahb"};
  mem::Sram s{"s", 0x1000, 0x100};
  EXPECT_THROW(ahb.connect_slave(s, 0x1002, 0x100), ConfigError);  // base
  EXPECT_THROW(ahb.connect_slave(s, 0x1000, 0x0FE), ConfigError);  // size
  EXPECT_THROW(ahb.connect_slave(s, 0x1000, 0), ConfigError);      // empty
  ahb.connect_slave(s, 0x1000, 0x100);  // the aligned mapping still works
}

}  // namespace
}  // namespace ouessant
