// E5 — the integration-style comparison the paper argues qualitatively in
// §II/§IV: the same accelerator driven through
//   (a) programmed I/O on a classic bus-slave wrapper,
//   (b) a discrete DMA engine + the slave wrapper,
//   (c) an Ouessant OCP (integrated transfer instructions),
// swept over block sizes. Every path performs the identical computation
// (identity datapath with a fixed 18-cycle latency) so the differences are
// pure integration cost. The OCP's advantages are structural: one bus
// crossing per word instead of two, and no per-step CPU orchestration.
#include "scenarios.hpp"

#include <algorithm>

#include "baseline/runners.hpp"
#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/passthrough.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr u32 kComputeCycles = 18;

std::vector<u32> workload(u32 words) {
  util::Rng rng(words);
  std::vector<u32> v(words);
  for (auto& w : v) w = rng.next_u32();
  return v;
}

u64 run_ocp(u32 words) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", words, 32, kComputeCycles);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = words,
                           .out_words = words});
  session.install(core::build_stream_program(
                      {.in_words = words, .out_words = words,
                       .burst = std::min(words, 64u), .overlap = true}),
                  /*timed_program=*/false);
  session.put_input(workload(words));
  const u64 cycles = session.run_irq();
  obs::validate_soc_ledger(soc);
  return cycles;
}

u64 run_pio(u32 words) {
  platform::Soc soc;
  baseline::SlaveAccel accel(soc.kernel(), "slave",
                             platform::kSlaveAccelBase, words, words,
                             kComputeCycles,
                             [](const std::vector<u32>& v) { return v; });
  soc.bus().connect_slave(accel, platform::kSlaveAccelBase,
                          baseline::kSlaveSpanBytes);
  soc.sram().load(kIn, workload(words));
  const u64 cycles =
      baseline::run_slave_pio(soc.cpu(), accel, kIn, kOut, words, words);
  obs::validate_soc_ledger(soc);
  return cycles;
}

u64 run_dma(u32 words) {
  platform::Soc soc;
  baseline::SlaveAccel accel(soc.kernel(), "slave",
                             platform::kSlaveAccelBase, words, words,
                             kComputeCycles,
                             [](const std::vector<u32>& v) { return v; });
  soc.bus().connect_slave(accel, platform::kSlaveAccelBase,
                          baseline::kSlaveSpanBytes);
  baseline::DmaEngine dma(soc.kernel(), "dma", soc.bus(), platform::kDmaBase);
  soc.sram().load(kIn, workload(words));
  const u64 cycles = baseline::run_slave_dma(soc.cpu(), dma, accel, kIn, kOut,
                                             words, words,
                                             std::min(words, 64u));
  obs::validate_soc_ledger(soc);
  return cycles;
}

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const u32 words = params.get_u32("words");
  const u64 pio = run_pio(words);
  const u64 dma = run_dma(words);
  const u64 ocp = run_ocp(words);
  result.add_metric("pio", pio);
  result.add_metric("dma", dma);
  result.add_metric("ocp", ocp);
  result.add_metric("pio_over_ocp",
                    static_cast<double>(pio) / static_cast<double>(ocp));
  result.add_metric("dma_over_ocp",
                    static_cast<double>(dma) / static_cast<double>(ocp));
}

}  // namespace

void register_e5_integration(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e5_integration",
      .experiment = "E5",
      .title = "PIO vs discrete DMA vs OCP, identical accelerator (cycles)",
      .grid = {{.name = "words", .values = {16, 32, 64, 128, 256, 512, 1024}}},
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
