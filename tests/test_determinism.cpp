// Differential determinism: quiescence gating is a pure scheduling
// optimization, so a full SoC scenario run with gating on must be
// bit-identical — final cycle count, per-invocation latencies, output
// data, and every Stats counter — to the same scenario run through the
// seed's tick-everything sweep (set_gating(false)). Covers the E1 (IDCT)
// and E3 (DFT) accelerators in both poll and interrupt completion modes,
// with idle gaps between invocations so the fast-forward path is
// actually exercised in the gated run.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "obs/gauges.hpp"
#include "obs/tracer.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/idct.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

struct RunResult {
  Cycle final_cycle = 0;
  std::vector<u64> invocation_cycles;
  std::vector<u32> output;
  std::map<std::string, u64> stats;  ///< obs::invariant_stats

  bool operator==(const RunResult& o) const {
    return final_cycle == o.final_cycle &&
           invocation_cycles == o.invocation_cycles && output == o.output &&
           stats == o.stats;
  }
};

void expect_identical(const RunResult& gated, const RunResult& ungated) {
  EXPECT_EQ(gated.final_cycle, ungated.final_cycle);
  EXPECT_EQ(gated.invocation_cycles, ungated.invocation_cycles);
  EXPECT_EQ(gated.output, ungated.output);
  // Stats include the bus's interned beat/transaction counters, so this
  // also checks the handle-recorded stats are schedule-independent.
  EXPECT_EQ(gated.stats, ungated.stats);
}

/// E1: 8x8 IDCT, 64 words in/out, overlapped streaming, alternating
/// poll/IRQ completion, idle gap between invocations. With @p traced,
/// the full observability stack rides along (event tracer through every
/// layer, a metrics sampler, and a closing CycleLedger proof) — which
/// must not change a single bit of the RunResult.
RunResult run_e1_idct(bool gating, bool traced = false) {
  platform::Soc soc;
  soc.kernel().set_gating(gating);
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::MetricsSampler> metrics;
  if (traced) {
    tracer = std::make_unique<obs::EventTracer>(soc.kernel());
    soc.bus().set_tracer(tracer.get());
    ocp.controller().set_tracer(tracer.get());
    idct.set_tracer(tracer.get());
    session.set_tracer(tracer.get());
    metrics = std::make_unique<obs::MetricsSampler>(
        soc.kernel(), 32,
        obs::Gauges{{.name = "rac_busy",
                     .read = [&] { return idct.busy() ? 1 : 0; }}});
  }
  session.install(
      core::build_stream_program({.in_words = 64, .out_words = 64,
                                  .burst = 64}));
  util::Rng rng(21);
  RunResult r;
  for (int i = 0; i < 4; ++i) {
    std::vector<u32> in(64);
    for (auto& w : in) w = static_cast<u32>(rng.range(-1024, 1023));
    session.put_input(in);
    r.invocation_cycles.push_back(i % 2 == 0 ? session.run_poll()
                                             : session.run_irq());
    const auto out = session.get_output();
    r.output.insert(r.output.end(), out.begin(), out.end());
    soc.cpu().spend(777);  // inter-frame idle: gated run fast-forwards here
  }
  r.final_cycle = soc.kernel().now();
  r.stats = obs::invariant_stats(soc.kernel().stats());
  if (traced) {
    EXPECT_GT(tracer->event_count(), 0u);
    EXPECT_FALSE(metrics->samples().empty());
    obs::validate_soc_ledger(soc);
  }
  return r;
}

/// E3: 256-point DFT, 512 words in/out, non-overlapped program (the
/// exec window is a pure wait), interrupt completion.
RunResult run_e3_dft(bool gating) {
  platform::Soc soc;
  soc.kernel().set_gating(gating);
  rac::DftRac dft(soc.kernel(), "dft", {.points = 256});
  core::Ocp& ocp = soc.add_ocp(dft);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 512,
                           .out_words = 512});
  session.install(core::build_stream_program({.in_words = 512,
                                              .out_words = 512,
                                              .burst = 64,
                                              .overlap = false}));
  util::Rng rng(22);
  RunResult r;
  for (int i = 0; i < 2; ++i) {
    std::vector<u32> in(512);
    for (auto& w : in) {
      w = static_cast<u32>(util::to_word(rng.range(-30000, 30000)));
    }
    session.put_input(in);
    r.invocation_cycles.push_back(session.run_irq());
    const auto out = session.get_output();
    r.output.insert(r.output.end(), out.begin(), out.end());
    soc.cpu().spend(5000);
  }
  r.final_cycle = soc.kernel().now();
  r.stats = obs::invariant_stats(soc.kernel().stats());
  return r;
}

TEST(Determinism, E1IdctGatedMatchesUngated) {
  const RunResult gated = run_e1_idct(true);
  const RunResult ungated = run_e1_idct(false);
  expect_identical(gated, ungated);
  EXPECT_FALSE(gated.output.empty());
}

TEST(Determinism, E3DftGatedMatchesUngated) {
  const RunResult gated = run_e3_dft(true);
  const RunResult ungated = run_e3_dft(false);
  expect_identical(gated, ungated);
  EXPECT_FALSE(gated.output.empty());
}

TEST(Determinism, GatedRunIsRepeatable) {
  // Same seed, same scenario, same kernel mode: byte-identical twice.
  EXPECT_TRUE(run_e1_idct(true) == run_e1_idct(true));
}

TEST(Determinism, TracedRunIsPassive) {
  // The observability stack observes; it never perturbs. A run with the
  // event tracer wired through bus/controller/RAC/driver plus a metrics
  // sampler must match the bare run bit for bit — including Stats.
  const RunResult bare = run_e1_idct(true);
  const RunResult traced = run_e1_idct(true, /*traced=*/true);
  expect_identical(bare, traced);
}

TEST(Determinism, TracedUngatedRunIsPassive) {
  // Same property on the tick-everything scheduler: the sampler's
  // per-cycle stepping during fast-forward is a host cost only.
  const RunResult bare = run_e1_idct(false);
  const RunResult traced = run_e1_idct(false, /*traced=*/true);
  expect_identical(bare, traced);
}

}  // namespace
}  // namespace ouessant
