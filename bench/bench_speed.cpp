// Raw-simulator-speed guard: host cycles/sec with the event-batching
// optimizations on vs forced off.
//
// Three workloads cover the hot paths the batched-burst windows and the
// decoded-microcode cache accelerate:
//   idct_invoke   repeated 64-word IDCT invocations (E1's Table-I HW
//                 path, polling driver): short bursts + a fetch/decode-
//                 heavy microcode loop — the decode cache's best case.
//   burst_xfer    the discrete DMA engine (E5's baseline mover) bursting
//                 4096 words SRAM-to-SRAM at 256 beats/grant, interrupt
//                 driver: beat-dominated with every window batchable —
//                 the batched window's best case.
//   serve_multi   the offload service fanning jobs over 4 IDCT workers
//                 on one AHB (serve_multi_ocp's shape): contention,
//                 IRQs, and scheduler traffic mixed in.
//
// Each workload runs both configurations, proves the simulated clock is
// bit-identical (the optimizations must be invisible), and reports
// cycles/sec for both plus the ratio. Only the steady-state invocation
// loop is timed — SoC construction, program install, and the backdoor
// input load are identical host-side costs in both modes and would only
// dilute the ratio. Host-clock metrics make the scenario
// non-deterministic; run-to-run payload comparisons skip it.
// run_tier1.sh's speed-guard stage compares opt_cps against the
// committed BENCH_speed.json baseline.
#include "scenarios.hpp"

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "baseline/dma.hpp"
#include "drv/session.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

/// Force every optimization this PR added off, reproducing the per-beat,
/// per-decode tree. Gating stays on in both modes — it predates this
/// guard and has its own scenario (kernel_gating).
void strip_optimizations(platform::Soc& soc) {
  soc.bus().set_batching(false);
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    soc.ocp(i).controller().set_decode_cache(false);
  }
}

struct SpeedSample {
  u64 sim_cycles = 0;   ///< simulated cycles of ONE workload repetition
  double best_cps = 0;  ///< best cycles/sec over the repetitions
};

/// Repeat @p one_run (which returns {sim cycles, host seconds} for its
/// timed region) until @p budget_s of measured host time is spent, at
/// least twice, keeping the fastest repetition. Best-of is the right
/// statistic on a shared host: load spikes only ever slow a run down.
template <typename F>
SpeedSample measure(F&& one_run, double budget_s = 0.2) {
  SpeedSample s;
  double spent = 0;
  int reps = 0;
  while (spent < budget_s || reps < 2) {
    const auto [cycles, dt] = one_run();
    spent += dt;
    ++reps;
    s.sim_cycles = cycles;
    if (dt > 0) {
      const double cps = static_cast<double>(cycles) / dt;
      if (cps > s.best_cps) s.best_cps = cps;
    }
  }
  return s;
}

/// Time @p body; returns {simulated cycles elapsed, host seconds}.
template <typename F>
std::pair<u64, double> timed(sim::Kernel& k, F&& body) {
  const Cycle c0 = k.now();
  const auto t0 = std::chrono::steady_clock::now();
  body();
  const double dt =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return {k.now() - c0, dt};
}

std::vector<u32> signal_words(u32 n, u32 seed) {
  util::Rng rng(seed);
  std::vector<u32> in(n);
  for (auto& w : in) {
    w = static_cast<u32>(util::to_word(rng.range(-30000, 30000)));
  }
  return in;
}

std::pair<u64, double> run_idct_invoke(bool optimized) {
  platform::Soc soc;
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  if (!optimized) strip_optimizations(soc);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
                      {.in_words = 64, .out_words = 64, .burst = 64}),
                  /*timed_program=*/false);
  session.put_input(signal_words(64, 7));
  // mvtc re-reads the same SRAM block each frame; nothing consumes it,
  // so the input is loaded once and the loop is pure invocation.
  return timed(soc.kernel(), [&] {
    for (int frame = 0; frame < 256; ++frame) session.run_poll();
  });
}

std::pair<u64, double> run_burst_xfer(bool optimized) {
  constexpr u32 kWords = 4096;
  constexpr Addr kSrc = 0x4010'0000;
  constexpr Addr kDst = 0x4020'0000;
  platform::Soc soc;
  baseline::DmaEngine dma(soc.kernel(), "dma", soc.bus(),
                          platform::kDmaBase);
  if (!optimized) strip_optimizations(soc);
  util::Rng rng(13);
  std::vector<u32> in(kWords);
  for (auto& w : in) w = rng.next_u32();
  soc.sram().load(kSrc, in);
  cpu::Gpp& gpp = soc.cpu();
  // Interrupt mode: the CPU sleeps on the IRQ line and the engine sleeps
  // while its port is busy, so each 256-beat window fast-forwards in one
  // jump when batching is on.
  return timed(soc.kernel(), [&] {
    for (int pass = 0; pass < 16; ++pass) {
      gpp.write32(dma.reg_base() + baseline::kDmaSrc, kSrc);
      gpp.write32(dma.reg_base() + baseline::kDmaDst, kDst);
      gpp.write32(dma.reg_base() + baseline::kDmaLen, kWords);
      gpp.write32(dma.reg_base() + baseline::kDmaBurst, 256);
      gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                  baseline::kDmaGo | baseline::kDmaIe);
      gpp.wait_for_irq(dma.irq());
      gpp.write32(dma.reg_base() + baseline::kDmaCtrl,
                  baseline::kDmaDone | baseline::kDmaIe);  // ack
    }
  });
}

std::pair<u64, double> run_serve_multi(bool optimized) {
  svc::ServiceConfig cfg;
  for (int i = 0; i < 4; ++i) {
    cfg.ocps.push_back(
        svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1});
  }
  cfg.queue_depth = 256;
  svc::OffloadService service(std::move(cfg));
  if (!optimized) strip_optimizations(service.soc());
  svc::WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 40.0;
  wl.seed = svc::kDefaultServiceSeed;
  return timed(service.soc().kernel(), [&] { service.run(wl); });
}

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const std::string& workload = params.get_str("workload");
  std::pair<u64, double> (*one)(bool) = nullptr;
  if (workload == "idct_invoke") {
    one = run_idct_invoke;
  } else if (workload == "burst_xfer") {
    one = run_burst_xfer;
  } else {
    one = run_serve_multi;
  }
  const SpeedSample opt = measure([&] { return one(true); });
  const SpeedSample base = measure([&] { return one(false); });
  if (opt.sim_cycles != base.sim_cycles) {
    result.fail("optimizations changed the simulated clock: " +
                std::to_string(opt.sim_cycles) + " vs " +
                std::to_string(base.sim_cycles) + " cycles");
  }
  result.add_metric("sim_cycles", opt.sim_cycles);
  result.add_metric("opt_cps", opt.best_cps);
  result.add_metric("base_cps", base.best_cps);
  result.add_metric("speedup", opt.best_cps / base.best_cps);
}

}  // namespace

void register_speed(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "sim_speed",
      .experiment = "guard",
      .title = "raw simulator speed: batched beats + decode cache on vs off",
      .grid = {{.name = "workload",
                .values = {"idct_invoke", "burst_xfer", "serve_multi"}}},
      .deterministic = false,
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
