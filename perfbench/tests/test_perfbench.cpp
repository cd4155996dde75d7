// The benchmark's own tests: the statistics it reports, the host-speed
// probe and the scaling it drives, the span recorder, and a smoke-size
// round of each workload against its pinned fingerprint, traced and
// untraced.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(NearestRank, PicksTheSmallestSampleCoveringP) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // order must not matter
  EXPECT_EQ(nearest_rank(v, 50.0), 50.0);
  EXPECT_EQ(nearest_rank(v, 99.0), 99.0);
  EXPECT_EQ(nearest_rank(v, 100.0), 100.0);
  EXPECT_EQ(nearest_rank(v, 0.5), 1.0);
  EXPECT_EQ(nearest_rank({7.0, 1.0, 3.0}, 50.0), 3.0);
  EXPECT_EQ(nearest_rank({7.0, 1.0, 3.0, 5.0}, 50.0), 3.0);
  EXPECT_EQ(nearest_rank({4.0}, 99.0), 4.0);
  EXPECT_EQ(nearest_rank({}, 50.0), 0.0);
  EXPECT_EQ(median({2.0, 9.0, 4.0}), 4.0);
}

TEST(Digest, IsOrderSensitive) {
  Digest a, b;
  a.add(1);
  a.add(2);
  b.add(2);
  b.add(1);
  EXPECT_NE(a.value(), b.value());
  Digest c, d;
  c.add(std::string_view("ab"));
  c.add(std::string_view("c"));
  d.add(std::string_view("a"));
  d.add(std::string_view("bc"));
  EXPECT_NE(c.value(), d.value());
}

void spin_us(double us) {
  const auto t0 = Clock::now();
  while (seconds_since(t0) * 1e6 < us) {
  }
}

TEST(SpanTracer, SelfTimeExcludesChildren) {
  SpanTracer t(2);
  {
    auto outer = SpanTracer::span(&t, "svc.run", 7);
    spin_us(200);
    {
      auto inner = SpanTracer::span(&t, "drv.run_poll", 8);
      spin_us(2000);
    }
  }
  { auto none = SpanTracer::span(nullptr, "svc.ignored"); }
  EXPECT_EQ(t.span_count(), 2u);
  ASSERT_EQ(t.layers().size(), 2u);
  const double svc = t.layers().at("svc").self_ms;
  const double drv = t.layers().at("drv").self_ms;
  EXPECT_GE(drv, 2.0);
  EXPECT_GE(svc, 0.2);
  EXPECT_LT(svc, drv);  // the child's 2 ms is not the parent's self time

  const std::string json = t.chrome_json("{}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"drv.run_poll\""), std::string::npos);
  // The inner span closes first and names the outer one as its parent.
  EXPECT_NE(json.find("\"id\": 8, \"span\": 2, \"parent\": 1"),
            std::string::npos);
  EXPECT_NE(t.layer_table().find("drv"), std::string::npos);
}

TEST(SpanTracer, KeepsOnlyTheFirstSpansButCountsAll) {
  SpanTracer t(3);
  for (int i = 0; i < 10; ++i) {
    auto s = SpanTracer::span(&t, "bench.x", i);
  }
  EXPECT_EQ(t.span_count(), 10u);
  EXPECT_EQ(t.kept(), 3u);
  EXPECT_EQ(t.layers().at("bench").spans, 10u);
}

TEST(SpeedProbe, ReadsAPositiveTimeEveryPassWithinItsArena) {
  SpeedProbe p;  // its arena throws std::bad_alloc if the map outgrew it
  for (int i = 0; i < 20; ++i) {
    const double ms = p.measure_ms();
    EXPECT_GT(ms, 0.0);
    EXPECT_LT(ms, 1000.0);
  }
}

TEST(Round, ScaleHostTimesLeavesSimulatedFiguresAlone) {
  Round r;
  r.cycles = 1000;
  r.ops = 3;
  r.timed_s = 2.0;
  r.setup_s = 4.0;
  r.boot_ms = 6.0;
  r.serve_ms = 8.0;
  r.op_us = {10.0, 20.0};
  r.fork_ms = {30.0};
  r.construct_ms = {40.0};
  r.save_ms = {50.0};
  r.restore_ms = {60.0};
  r.call_us = {70.0};
  r.rss_per_stack_mb = {16.0};
  r.counts["sim.ticks"] = 5;
  r.scale_host_times(0.5);
  EXPECT_EQ(r.timed_s, 1.0);
  EXPECT_EQ(r.setup_s, 2.0);
  EXPECT_EQ(r.boot_ms, 3.0);
  EXPECT_EQ(r.serve_ms, 4.0);
  EXPECT_EQ(r.op_us, (std::vector<double>{5.0, 10.0}));
  EXPECT_EQ(r.fork_ms, std::vector<double>{15.0});
  EXPECT_EQ(r.construct_ms, std::vector<double>{20.0});
  EXPECT_EQ(r.save_ms, std::vector<double>{25.0});
  EXPECT_EQ(r.restore_ms, std::vector<double>{30.0});
  EXPECT_EQ(r.call_us, std::vector<double>{35.0});
  EXPECT_EQ(r.rss_per_stack_mb, std::vector<double>{16.0});  // not a time
  EXPECT_EQ(r.cycles, 1000u);
  EXPECT_EQ(r.ops, 3u);
  EXPECT_EQ(r.counts.at("sim.ticks"), 5u);
}

TEST(Json, EscapesAndNumbers) {
  EXPECT_EQ(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_num(0.5), "0.5");
  EXPECT_EQ(json_num(1.0 / 0.0), "null");
}

std::string golden(const std::string& workload) {
  std::ifstream in(PERFBENCH_GOLDEN);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(workload + " ", 0) == 0) {
      return line.substr(workload.size() + 1);
    }
  }
  return "";
}

class Smoke : public ::testing::TestWithParam<const char*> {};

TEST_P(Smoke, PinnedRoundMatchesGoldenTracedAndUntraced) {
  const std::string w = GetParam();
  const Round plain = run_round(w, kPinnedSeed, Size::kSmoke, nullptr);
  EXPECT_EQ(plain.failed, 0u) << (plain.errors.empty() ? "" : plain.errors[0]);
  EXPECT_GT(plain.ops, 0u);
  EXPECT_GT(plain.cycles, 0u);
  EXPECT_GT(plain.timed_s, 0.0);
  EXPECT_FALSE(plain.op_us.empty());
  EXPECT_FALSE(plain.fork_ms.empty());
  EXPECT_EQ(fingerprint_text(plain.fingerprint), golden(w));

  SpanTracer tracer(1024);
  const Round traced = run_round(w, kPinnedSeed, Size::kSmoke, &tracer);
  EXPECT_EQ(traced.failed, 0u)
      << (traced.errors.empty() ? "" : traced.errors[0]);
  EXPECT_EQ(traced.fingerprint, plain.fingerprint);
  EXPECT_GT(tracer.span_count(), 0u);
  EXPECT_GT(traced.counts.at("sim.ticks"), 0u);
}

TEST_P(Smoke, SeedChangesTheFingerprint) {
  const std::string w = GetParam();
  const Round a = run_round(w, round_seed(5, 0), Size::kSmoke, nullptr);
  const Round b = run_round(w, round_seed(5, 1), Size::kSmoke, nullptr);
  EXPECT_EQ(a.failed + b.failed, 0u);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("ocp_stream", "serve_mix",
                                           "fleet_fork"));

}  // namespace
}  // namespace perfbench
