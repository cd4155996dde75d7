// Kernel throughput guard as a scenario: the idle-heavy workload
// quiescence gating is built for — a duty-cycled 256-point DFT. Each
// frame moves the input block, blocks on exec (controller in exec-wait,
// bus idle, CPU asleep on the IRQ line — the ~2.5k-cycle compute
// countdown fast-forwards in one jump), drains the output, then the whole
// SoC idles until the next frame period. Runs the same workload with
// gating on and off, checks the simulated clocks agree bit-for-bit, and
// reports host cycles/sec for both so a regression in the fast-forward
// path shows up in CI transcripts.
//
// The cycles/sec metrics read the host clock, so the scenario is marked
// non-deterministic: run-to-run payload comparisons skip it.
#include "scenarios.hpp"

#include <chrono>

#include "drv/session.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

/// Cycles between frame starts — the inter-job idle a periodic signal-
/// processing deployment spends waiting for the next buffer.
constexpr u64 kFramePeriodSlack = 20'000;

/// Runs @p invocations interrupt-mode DFT frames; returns {simulated
/// cycles consumed, host seconds}.
std::pair<u64, double> run_idle_heavy_dft(bool gating, int invocations) {
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
  // overlap=false: move all input, block on exec, then move the output —
  // the exec window is a pure wait (controller in exec-wait, bus idle,
  // CPU asleep on the IRQ line), which is what gating fast-forwards.
  session.install(core::build_stream_program({.in_words = 512,
                                              .out_words = 512,
                                              .burst = 64,
                                              .overlap = false}),
                  /*timed_program=*/false);
  util::Rng rng(11);
  std::vector<u32> in(512);
  for (auto& w : in) {
    w = static_cast<u32>(util::to_word(rng.range(-30000, 30000)));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const Cycle c0 = soc.kernel().now();
  for (int i = 0; i < invocations; ++i) {
    session.put_input(in);
    session.run_irq();
    soc.cpu().spend(kFramePeriodSlack);  // idle until the next frame
  }
  const auto t1 = std::chrono::steady_clock::now();
  return {soc.kernel().now() - c0,
          std::chrono::duration<double>(t1 - t0).count()};
}

void run_point(const exp::ParamMap&, const exp::RunContext&,
               exp::Result& result) {
  constexpr int kInvocations = 50;
  const auto [gated_cycles, gated_s] =
      run_idle_heavy_dft(/*gating=*/true, kInvocations);
  const auto [ungated_cycles, ungated_s] =
      run_idle_heavy_dft(/*gating=*/false, kInvocations);
  if (gated_cycles != ungated_cycles) {
    result.fail("gating changed the simulated clock: gated " +
                std::to_string(gated_cycles) + " vs ungated " +
                std::to_string(ungated_cycles) + " cycles");
  }
  const double gated_cps = static_cast<double>(gated_cycles) / gated_s;
  const double ungated_cps =
      static_cast<double>(ungated_cycles) / ungated_s;
  result.add_metric("invocations", kInvocations);
  result.add_metric("sim_cycles", gated_cycles);
  result.add_metric("gated_cps", gated_cps);
  result.add_metric("ungated_cps", ungated_cps);
  result.add_metric("speedup", gated_cps / ungated_cps);
}

}  // namespace

void register_kernel_guard(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "kernel_gating",
      .experiment = "guard",
      .title = "quiescence-gating throughput guard (idle-heavy DFT frames)",
      .deterministic = false,
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
