// E10 (related-work ablation) — Ouessant vs the Molen-style ISA-coupled
// integration the paper positions itself against (§II-B): "While it
// provides transparency and low latency access to the accelerator, it
// prevents parallelization between hardware and processor".
//
// Two measurements over the 256-pt DFT workload:
//  1. isolated invocation latency — Molen's strength (no controller
//     fetches, no driver);
//  2. total time for an invocation plus K cycles of independent CPU work —
//     the OCP overlaps, the coupled design serializes; the crossover K*
//     is the amount of spare CPU work that pays for Ouessant's overhead.
#include "scenarios.hpp"

#include "baseline/coupled.hpp"
#include "baseline/slave_accel.hpp"
#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr u32 kWords = 512;
constexpr u32 kCompute = 1461;  // same core latency for both integrations

std::vector<u32> workload() {
  util::Rng rng(3);
  std::vector<u32> v(kWords);
  for (auto& w : v) w = rng.next_u32() & 0x00FF'FFFF;
  return v;
}

/// Molen-style: returns {isolated latency, total with K cycles CPU work}.
std::pair<u64, u64> run_coupled(u64 cpu_work) {
  platform::Soc soc;
  baseline::CoupledAccel ccu(soc.cpu(), "molen_dft", kWords, kWords,
                             kCompute, baseline::dft_fn(256));
  soc.sram().load(kIn, workload());
  const Cycle t0 = soc.kernel().now();
  const u64 lat = ccu.invoke(kIn, kOut);
  soc.cpu().spend(cpu_work);  // serialized: the CPU was stalled
  obs::validate_soc_ledger(soc);
  return {lat, soc.kernel().now() - t0};
}

/// Ouessant: returns {isolated latency, total with K cycles CPU work}.
std::pair<u64, u64> run_ocp(u64 cpu_work) {
  platform::Soc soc;
  rac::DftRac dft(soc.kernel(), "dft", {.points = 256});
  core::Ocp& ocp = soc.add_ocp(dft);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = kWords,
                           .out_words = kWords});
  session.install(core::figure4_program(), /*timed_program=*/false);
  session.put_input(workload());
  session.driver().enable_irq(true);

  const Cycle t0 = soc.kernel().now();
  session.start_async();
  soc.cpu().spend(cpu_work);  // overlapped with the OCP
  session.driver().wait_done_irq();
  const u64 total = soc.kernel().now() - t0;

  // Isolated latency: a fresh run with no CPU work.
  session.put_input(workload());
  const u64 lat = session.run_irq();
  obs::validate_soc_ledger(soc);
  return {lat, total};
}

void run_latency_point(const exp::ParamMap&, const exp::RunContext&,
                       exp::Result& result) {
  const auto [molen_lat, molen0] = run_coupled(0);
  const auto [ocp_lat, ocp0] = run_ocp(0);
  (void)molen0;
  (void)ocp0;
  result.add_metric("coupled_lat", molen_lat);
  result.add_metric("ocp_lat", ocp_lat);
  result.add_metric(
      "ocp_overhead_pct",
      100.0 * (static_cast<double>(ocp_lat) / molen_lat - 1.0));
}

void run_overlap_point(const exp::ParamMap& params, const exp::RunContext&,
                       exp::Result& result) {
  const u64 k = static_cast<u64>(params.get_int("k"));
  const u64 molen = run_coupled(k).second;
  const u64 ocp = run_ocp(k).second;
  result.add_metric("coupled_total", molen);
  result.add_metric("ocp_total", ocp);
  result.add_metric("ocp_over_coupled",
                    static_cast<double>(ocp) / static_cast<double>(molen));
}

}  // namespace

void register_e10_coupled(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e10_latency",
      .experiment = "E10",
      .title = "ISA-coupled (Molen-style) vs Ouessant: isolated latency",
      .run = run_latency_point,
  });
  r.add(exp::ScenarioSpec{
      .name = "e10_overlap",
      .experiment = "E10",
      .title = "invocation + K cycles of independent CPU work (total)",
      .grid = {{.name = "k",
                .values = {0, 500, 1000, 2000, 4000, 8000, 16000}}},
      .run = run_overlap_point,
  });
}

}  // namespace ouessant::scenarios
