// Unit tests for the simulation kernel, stats, and VCD tracing.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/gauges.hpp"
#include "sim/kernel.hpp"

namespace ouessant {
namespace {

class Counter : public sim::Component {
 public:
  Counter(sim::Kernel& k, std::string name) : sim::Component(k, std::move(name)) {}
  void tick_compute() override { next_ = value_ + 1; }
  void tick_commit() override { value_ = next_; }
  u64 value() const { return value_; }

 private:
  u64 value_ = 0;
  u64 next_ = 0;
};

/// Samples another counter during compute — used to verify that the
/// compute phase observes pre-edge (committed) state regardless of
/// registration order.
class Sampler : public sim::Component {
 public:
  Sampler(sim::Kernel& k, std::string name, const Counter& c)
      : sim::Component(k, std::move(name)), c_(c) {}
  void tick_compute() override { seen_ = c_.value(); }
  u64 seen() const { return seen_; }

 private:
  const Counter& c_;
  u64 seen_ = 0;
};

TEST(Kernel, TickAdvancesTime) {
  sim::Kernel k;
  EXPECT_EQ(k.now(), 0u);
  k.tick();
  EXPECT_EQ(k.now(), 1u);
  k.run(9);
  EXPECT_EQ(k.now(), 10u);
}

TEST(Kernel, ComponentsTickTogether) {
  sim::Kernel k;
  Counter a(k, "a");
  Counter b(k, "b");
  k.run(5);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(Kernel, TwoPhaseOrderIndependence) {
  // Sampler registered BEFORE the counter it observes, and another after:
  // both must see the same (pre-edge) value each cycle.
  sim::Kernel k;
  auto* counter_holder = new Counter(k, "c0");  // registered first
  Sampler early(k, "early", *counter_holder);
  Counter& c = *counter_holder;
  Sampler late(k, "late", c);
  k.tick();
  EXPECT_EQ(early.seen(), late.seen());
  k.tick();
  EXPECT_EQ(early.seen(), late.seen());
  EXPECT_EQ(early.seen(), 1u);  // value committed after first tick
  delete counter_holder;
}

TEST(Kernel, ComponentUnregistersOnDestruction) {
  sim::Kernel k;
  {
    Counter a(k, "a");
    EXPECT_EQ(k.component_count(), 1u);
  }
  EXPECT_EQ(k.component_count(), 0u);
  k.tick();  // must not touch the dead component
}

TEST(Kernel, RunUntil) {
  sim::Kernel k;
  Counter a(k, "a");
  k.run_until([&] { return a.value() >= 42; });
  EXPECT_EQ(a.value(), 42u);
}

TEST(Kernel, RunUntilTimeout) {
  sim::Kernel k;
  EXPECT_THROW(k.run_until([] { return false; }, 100), SimError);
  EXPECT_EQ(k.now(), 100u);
}

TEST(Kernel, SamplersFireAfterCommit) {
  sim::Kernel k;
  Counter a(k, "a");
  std::vector<std::pair<Cycle, u64>> log;
  k.add_sampler([&](Cycle c) { log.emplace_back(c, a.value()); });
  k.run(3);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], (std::pair<Cycle, u64>{1, 1}));
  EXPECT_EQ(log[2], (std::pair<Cycle, u64>{3, 3}));
}

TEST(Kernel, SamplerRemoval) {
  sim::Kernel k;
  int calls = 0;
  const u64 id = k.add_sampler([&](Cycle) { ++calls; });
  k.tick();
  k.remove_sampler(id);
  k.tick();
  EXPECT_EQ(calls, 1);
}

TEST(Stats, CountersAccumulate) {
  sim::Stats s;
  s.add("beats");
  s.add("beats", 3);
  s.set("cap", 7);
  EXPECT_EQ(s.get("beats"), 4u);
  EXPECT_EQ(s.get("cap"), 7u);
  EXPECT_EQ(s.get("missing"), 0u);
  EXPECT_TRUE(s.has("beats"));
  EXPECT_FALSE(s.has("missing"));
  const std::string rep = s.report();
  EXPECT_NE(rep.find("beats = 4"), std::string::npos);
  s.clear();
  EXPECT_FALSE(s.has("beats"));
}

TEST(Trace, WritesValidVcd) {
  const std::string path = ::testing::TempDir() + "ouessant_trace_test.vcd";
  {
    sim::Kernel k;
    Counter a(k, "a");
    obs::VcdTrace trace(
        k, path,
        {{.name = "count", .width = 8,
          .read = [&] { return a.value() & 0xFF; }},
         {.name = "bit", .width = 1, .read = [&] { return a.value() & 1; }}});
    k.run(4);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string vcd = ss.str();
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 8"), std::string::npos);
  EXPECT_NE(vcd.find("#1"), std::string::npos);
  EXPECT_NE(vcd.find("#4"), std::string::npos);
  EXPECT_NE(vcd.find("b00000011"), std::string::npos);  // count == 3
  std::remove(path.c_str());
}

TEST(Trace, OnlyChangesEmitted) {
  const std::string path = ::testing::TempDir() + "ouessant_trace_test2.vcd";
  {
    sim::Kernel k;
    Counter a(k, "a");
    obs::VcdTrace trace(
        k, path, {{.name = "constant", .width = 4, .read = [] { return 7; }}});
    k.run(10);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string vcd = ss.str();
  // The constant appears exactly once (initial value).
  std::size_t occurrences = 0;
  for (std::size_t pos = vcd.find("b0111");
       pos != std::string::npos; pos = vcd.find("b0111", pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ouessant
