// System-level robustness tests: randomized multi-master bus traffic,
// utilization reporting, waveform probes, and determinism.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bus/monitor.hpp"
#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/probes.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/passthrough.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

/// Autonomous bus traffic generator: issues random-size reads and writes
/// to its own SRAM region and checks its own read data.
class TrafficGen : public sim::Component {
 public:
  TrafficGen(sim::Kernel& kernel, std::string name, bus::BusMasterPort& port,
             Addr base, u32 words, u64 seed)
      : sim::Component(kernel, std::move(name)),
        port_(port),
        base_(base),
        words_(words),
        rng_(seed) {
    shadow_.assign(words_, 0);
  }

  void tick_compute() override {
    if (port_.busy()) return;
    if (expecting_read_) {
      // Verify the read against the shadow model.
      const auto& data = port_.rdata();
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (data[i] != shadow_[read_index_ + i]) ++mismatches_;
      }
      expecting_read_ = false;
    }
    if (ops_done_ >= ops_target_) return;
    const u32 len = 1 + rng_.below(16);
    const u32 index = rng_.below(words_ - len);
    if (rng_.chance(0.5)) {
      std::vector<u32> data(len);
      for (u32 i = 0; i < len; ++i) {
        data[i] = rng_.next_u32();
        shadow_[index + i] = data[i];
      }
      port_.start_write(base_ + index * 4, std::move(data));
    } else {
      read_index_ = index;
      expecting_read_ = true;
      port_.start_read(base_ + index * 4, len);
    }
    ++ops_done_;
  }

  [[nodiscard]] u64 mismatches() const { return mismatches_; }
  [[nodiscard]] u64 ops_done() const { return ops_done_; }
  [[nodiscard]] bool finished() const {
    return ops_done_ >= ops_target_ && !port_.busy() && !expecting_read_;
  }

 private:
  bus::BusMasterPort& port_;
  Addr base_;
  u32 words_;
  util::Rng rng_;
  std::vector<u32> shadow_;
  bool expecting_read_ = false;
  u32 read_index_ = 0;
  u64 ops_done_ = 0;
  u64 ops_target_ = 300;
  u64 mismatches_ = 0;
};

TEST(BusStress, ThreeMastersRandomTraffic) {
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);
  obs::EventTracer tracer(kernel);
  bus.set_tracer(&tracer);

  auto& p0 = bus.connect_master("gen0", 0);
  auto& p1 = bus.connect_master("gen1", 1);
  auto& p2 = bus.connect_master("gen2", 2);
  TrafficGen g0(kernel, "gen0", p0, 0x4000'0000, 1024, 11);
  TrafficGen g1(kernel, "gen1", p1, 0x4002'0000, 1024, 22);
  TrafficGen g2(kernel, "gen2", p2, 0x4004'0000, 1024, 33);

  kernel.run_until(
      [&] { return g0.finished() && g1.finished() && g2.finished(); },
      1'000'000);

  EXPECT_EQ(g0.mismatches(), 0u);
  EXPECT_EQ(g1.mismatches(), 0u);
  EXPECT_EQ(g2.mismatches(), 0u);
  EXPECT_EQ(g0.ops_done() + g1.ops_done() + g2.ops_done(), 900u);

  const auto log = bus::transactions(tracer, bus);
  EXPECT_EQ(log.size(), bus.master_totals().transactions);
  const auto report = bus::check_log(log, bus.timing());
  EXPECT_TRUE(report.ok) << report.violations.size() << " violations, e.g. "
                         << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(BusStress, RoundRobinFairness) {
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb", bus::Arbitration::kRoundRobin);
  mem::Sram sram("sram", 0, 1 << 20);
  bus.connect_slave(sram, 0, 1 << 20);
  auto& p0 = bus.connect_master("gen0", 0);
  auto& p1 = bus.connect_master("gen1", 0);
  TrafficGen g0(kernel, "gen0", p0, 0x0'0000, 1024, 1);
  TrafficGen g1(kernel, "gen1", p1, 0x4'0000, 1024, 2);
  kernel.run_until([&] { return g0.finished() && g1.finished(); },
                   1'000'000);
  EXPECT_EQ(g0.mismatches() + g1.mismatches(), 0u);
  // Fairness: beat counts are within 2x of each other.
  const u64 b0 = p0.stats().beats;
  const u64 b1 = p1.stats().beats;
  EXPECT_LT(std::max(b0, b1), 2 * std::min(b0, b1));
}

TEST(Report, CountsAddUpAfterARun) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 64, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
      {.in_words = 64, .out_words = 64, .burst = 64}));
  session.put_input(std::vector<u32>(64, 5));
  session.run_irq();

  // The cycle ledger is the SoC's one utilization account: it closes
  // (every track sums to the wall clock) and names each component.
  const Cycle now = soc.kernel().now();
  const obs::CycleLedger ledger = obs::validate_soc_ledger(soc);
  std::vector<std::string> names;
  for (obs::CycleLedger::TrackId t = 0; t < ledger.track_count(); ++t) {
    names.push_back(ledger.track_name(t));
    EXPECT_EQ(ledger.track_sum(t), now) << names.back();
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "bus." + soc.bus().name(), "cpu",
                       "ctrl." + ocp.controller().name(), "rac.pass"}));
  const auto bus = ledger.total(0, obs::Category::kTransfer);
  EXPECT_EQ(bus, soc.bus().master_totals().beats);
  EXPECT_GT(bus, 0u);
  EXPECT_LT(bus, now);
  EXPECT_GT(ledger.total(3, obs::Category::kCompute), 0u);
  const std::string text = ledger.render(now);
  EXPECT_NE(text.find("bus."), std::string::npos);
  EXPECT_NE(text.find("ctrl." + ocp.controller().name()), std::string::npos);
}

TEST(Probes, StandardVcdProbesCaptureARun) {
  const std::string path = ::testing::TempDir() + "ocp_probes.vcd";
  {
    platform::Soc soc;
    rac::PassthroughRac rac(soc.kernel(), "pass", 16, 32);
    core::Ocp& ocp = soc.add_ocp(rac);
    obs::VcdTrace trace(soc.kernel(), path,
                        platform::standard_probes(soc, ocp));
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = 0x4000'0000,
                             .in_base = 0x4001'0000,
                             .out_base = 0x4002'0000,
                             .in_words = 16,
                             .out_words = 16});
    session.install(core::build_stream_program(
        {.in_words = 16, .out_words = 16, .burst = 16}));
    session.put_input(std::vector<u32>(16, 9));
    session.run_poll();
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string vcd = ss.str();
  EXPECT_NE(vcd.find("ctrl_pc"), std::string::npos);
  EXPECT_NE(vcd.find("fifo_in0_level"), std::string::npos);
  EXPECT_NE(vcd.find("rac_busy"), std::string::npos);
  // The controller actually moved: some PC change was dumped.
  EXPECT_NE(vcd.find("b00000000000011"), std::string::npos);  // pc == 3
  std::remove(path.c_str());
}

TEST(Determinism, IdenticalRunsIdenticalCycles) {
  auto run_once = [] {
    platform::Soc soc;
    rac::DftRac dft(soc.kernel(), "dft", {.points = 64});
    core::Ocp& ocp = soc.add_ocp(dft);
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = 0x4000'0000,
                             .in_base = 0x4001'0000,
                             .out_base = 0x4002'0000,
                             .in_words = 128,
                             .out_words = 128});
    session.install(core::build_stream_program(
        {.in_words = 128, .out_words = 128, .burst = 64}));
    util::Rng rng(3);
    std::vector<u32> in(128);
    for (auto& w : in) w = rng.next_u32() & 0xFFFF;
    session.put_input(in);
    return session.run_irq();
  };
  const u64 a = run_once();
  const u64 b = run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ouessant
