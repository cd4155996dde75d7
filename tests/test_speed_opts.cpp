// Differential determinism for the raw-speed optimizations: batched
// multi-beat bus windows and the decoded-microcode cache are pure
// scheduling/host-work optimizations, so every run with them on must be
// bit-identical — final cycle, memory contents, and every Stats counter
// — to the same run with them forced off (bus::set_batching(false),
// Controller::set_decode_cache(false)).
//
// The second half proves the safety fallback: arming any observer that
// watches individual beats (event tracer, bus fault hook, write
// snooper, kernel sampler) must silently disable the batched fast
// path — batched_chunks() stays 0 — without changing the results.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/dma.hpp"
#include "drv/session.hpp"
#include "fault/hooks.hpp"
#include "obs/collect.hpp"
#include "obs/tracer.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

/// Per-run knobs under test plus the optional beat-observers whose mere
/// presence must force the per-beat path.
struct Config {
  bool batching = true;
  bool decode_cache = true;
  bool tracer = false;
  bool fault_hook = false;
  bool snooper = false;
  bool sampler = false;
};

struct RunResult {
  Cycle final_cycle = 0;
  std::vector<u32> memory;
  std::map<std::string, u64> stats;  ///< obs::invariant_stats
  u64 batched_chunks = 0;
  u64 decode_hits = 0;
  std::size_t awake_at_end = 0;
};

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_cycle, b.final_cycle);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.stats, b.stats);
}

/// Never fires — its mere installation must force per-beat arbitration.
class BenignBusHook : public fault::BusFaultHook {
 public:
  bool beat_error(const std::string&, Addr, bool, Cycle) override {
    return false;
  }
};

/// Arm the requested observers; returns the tracer (if any) so it stays
/// alive for the run.
std::unique_ptr<obs::EventTracer> arm(platform::Soc& soc, const Config& cfg,
                                      BenignBusHook& hook, u64& scratch) {
  soc.bus().set_batching(cfg.batching);
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    soc.ocp(i).controller().set_decode_cache(cfg.decode_cache);
  }
  std::unique_ptr<obs::EventTracer> tracer;
  if (cfg.tracer) {
    tracer = std::make_unique<obs::EventTracer>(soc.kernel());
    soc.bus().set_tracer(tracer.get());
  }
  if (cfg.fault_hook) soc.bus().set_fault_hook(&hook);
  if (cfg.snooper) {
    soc.bus().add_write_snooper(
        [&scratch](Addr, const bus::BusMasterPort&) { ++scratch; });
  }
  if (cfg.sampler) {
    soc.kernel().add_sampler([&scratch](Cycle) { ++scratch; });
  }
  return tracer;
}

/// A DMA copy: @c words per pass, @c passes passes, @c burst beats per
/// grant.
struct DmaShape {
  u32 words = 1024;
  int passes = 2;
  u32 burst = 64;
};

/// The batched window's best case: the discrete DMA engine copying
/// SRAM-to-SRAM with interrupt completion, pass after pass (later passes
/// re-use the programmed engine).
RunResult run_dma_copy(const Config& cfg, const DmaShape& shape = {}) {
  constexpr Addr kSrc = 0x4010'0000;
  constexpr Addr kDst = 0x4020'0000;
  platform::Soc soc;
  baseline::DmaEngine dma(soc.kernel(), "dma", soc.bus(),
                          platform::kDmaBase);
  BenignBusHook hook;
  u64 scratch = 0;
  const auto tracer = arm(soc, cfg, hook, scratch);
  util::Rng rng(31);
  std::vector<u32> in(shape.words);
  for (auto& w : in) w = rng.next_u32();
  soc.sram().load(kSrc, in);
  cpu::Gpp& gpp = soc.cpu();
  for (int pass = 0; pass < shape.passes; ++pass) {
    gpp.write32(dma.reg_base() + baseline::kDmaSrc, kSrc);
    gpp.write32(dma.reg_base() + baseline::kDmaDst, kDst);
    gpp.write32(dma.reg_base() + baseline::kDmaLen, shape.words);
    gpp.write32(dma.reg_base() + baseline::kDmaBurst, shape.burst);
    gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                baseline::kDmaGo | baseline::kDmaIe);
    gpp.wait_for_irq(dma.irq());
    gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                baseline::kDmaDone | baseline::kDmaIe);  // ack
  }
  RunResult r;
  r.final_cycle = soc.kernel().now();
  r.memory = soc.sram().dump(kDst, shape.words);
  EXPECT_EQ(r.memory, in);
  r.stats = obs::invariant_stats(soc.kernel().stats());
  r.batched_chunks = soc.bus().batched_chunks();
  r.awake_at_end = soc.kernel().awake_count();
  return r;
}

/// The decode cache's best case: the same stream microcode re-fetched
/// and re-decoded for every frame of a repeated IDCT invocation.
RunResult run_idct_frames(const Config& cfg) {
  platform::Soc soc;
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  BenignBusHook hook;
  u64 scratch = 0;
  const auto tracer = arm(soc, cfg, hook, scratch);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
      {.in_words = 64, .out_words = 64, .burst = 64}));
  util::Rng rng(32);
  RunResult r;
  for (int frame = 0; frame < 3; ++frame) {
    std::vector<u32> in(64);
    for (auto& w : in) {
      w = static_cast<u32>(util::to_word(rng.range(-30000, 30000)));
    }
    session.put_input(in);
    if (frame % 2 == 0) {
      session.run_poll();
    } else {
      session.run_irq();
    }
    const auto out = session.get_output();
    r.memory.insert(r.memory.end(), out.begin(), out.end());
    soc.cpu().spend(500);  // idle gap: the gated run fast-forwards here
  }
  r.final_cycle = soc.kernel().now();
  r.stats = obs::invariant_stats(soc.kernel().stats());
  r.batched_chunks = soc.bus().batched_chunks();
  r.decode_hits = ocp.controller().decode_cache_hits();
  r.awake_at_end = soc.kernel().awake_count();
  return r;
}

// ---------------------------------------------------------------------
// Passivity: optimizations on == optimizations off, bit for bit.

// The fast runs pin their exact engagement counts: a fast path that
// stops engaging on some windows or fetches fails here on any host, not
// only one that stops engaging entirely.

TEST(SpeedOpts, DmaBatchingOnMatchesOff) {
  struct Case {
    DmaShape shape;
    Cycle cycles;
    u64 batched_chunks;
  };
  // Short grants, then long ones: 4096 words x 16 passes at 256 beats.
  for (const Case& c :
       {Case{{}, 6'232, 64},
        Case{{.words = 4096, .passes = 16, .burst = 256}, 197'312, 512}}) {
    SCOPED_TRACE("burst " + std::to_string(c.shape.burst));
    const RunResult on = run_dma_copy({}, c.shape);
    const RunResult off = run_dma_copy({.batching = false}, c.shape);
    expect_identical(on, off);
    EXPECT_EQ(on.final_cycle, c.cycles);
    EXPECT_EQ(on.batched_chunks, c.batched_chunks);
    EXPECT_EQ(off.batched_chunks, 0u);
  }
}

TEST(SpeedOpts, IdctDecodeCacheOnMatchesOff) {
  const RunResult on = run_idct_frames({});
  const RunResult off = run_idct_frames({.decode_cache = false});
  expect_identical(on, off);
  EXPECT_EQ(on.decode_hits, 8u);
  EXPECT_EQ(off.decode_hits, 0u);
}

TEST(SpeedOpts, IdctAllOptsOnMatchesAllOff) {
  const RunResult on = run_idct_frames({});
  const RunResult off =
      run_idct_frames({.batching = false, .decode_cache = false});
  expect_identical(on, off);
  EXPECT_EQ(on.batched_chunks, 16u);
  EXPECT_EQ(on.decode_hits, 8u);
  EXPECT_EQ(off.batched_chunks, 0u);
  EXPECT_EQ(off.decode_hits, 0u);
}

TEST(SpeedOpts, OptimizedRunIsRepeatable) {
  expect_identical(run_dma_copy({}), run_dma_copy({}));
  expect_identical(run_idct_frames({}), run_idct_frames({}));
}

// ---------------------------------------------------------------------
// Fallback: any beat-level observer must force per-beat arbitration
// (batched_chunks() == 0) without changing a single bit.

TEST(SpeedOpts, TracerForcesPerBeatPath) {
  const RunResult plain = run_dma_copy({});
  const RunResult traced = run_dma_copy({.tracer = true});
  expect_identical(plain, traced);
  EXPECT_EQ(traced.batched_chunks, 0u);
}

TEST(SpeedOpts, FaultHookForcesPerBeatPath) {
  const RunResult hooked = run_dma_copy({.fault_hook = true});
  expect_identical(run_dma_copy({}), hooked);
  EXPECT_EQ(hooked.batched_chunks, 0u);
}

TEST(SpeedOpts, WriteSnooperForcesPerBeatPath) {
  const RunResult snooped = run_dma_copy({.snooper = true});
  expect_identical(run_dma_copy({}), snooped);
  EXPECT_EQ(snooped.batched_chunks, 0u);
}

TEST(SpeedOpts, SamplerForcesPerBeatPath) {
  const RunResult sampled = run_dma_copy({.sampler = true});
  expect_identical(run_dma_copy({}), sampled);
  EXPECT_EQ(sampled.batched_chunks, 0u);
}

// ---------------------------------------------------------------------
// Quiescence: with everything idle after the workload, no component may
// still be ticking — the tick loop must be fully asleep.

TEST(SpeedOpts, RunEndsFullyQuiescent) {
  EXPECT_EQ(run_dma_copy({}).awake_at_end, 0u);
  EXPECT_EQ(run_idct_frames({}).awake_at_end, 0u);
}

}  // namespace
}  // namespace ouessant
