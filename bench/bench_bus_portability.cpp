// E8 (extension ablation) — bus portability: the same OCP, microcode and
// driver on the AMBA2/AHB-class interconnect (the paper's Leon3 platform)
// and on an AXI4-Lite-class interconnect (the paper's announced Zynq
// port). Only the bus-specific interface FSM differs — which is exactly
// the modularity claim of Fig. 3 — so the delta is pure protocol cost.
#include "scenarios.hpp"

#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/idct.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;

u64 run_idct(platform::BusKind bus) {
  platform::SocConfig cfg;
  cfg.bus = bus;
  platform::Soc soc(cfg);
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
                      {.in_words = 64, .out_words = 64, .burst = 64}),
                  /*timed_program=*/false);
  util::Rng rng(5);
  std::vector<u32> in(64);
  for (auto& w : in) w = util::to_word(rng.range(-512, 511));
  session.put_input(in);
  const u64 cycles = session.run_irq();
  obs::validate_soc_ledger(soc);
  return cycles;
}

u64 run_dft(platform::BusKind bus) {
  platform::SocConfig cfg;
  cfg.bus = bus;
  platform::Soc soc(cfg);
  rac::DftRac dft(soc.kernel(), "dft", {.points = 256});
  core::Ocp& ocp = soc.add_ocp(dft);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 512,
                           .out_words = 512});
  session.install(core::figure4_program(), false);
  util::Rng rng(6);
  std::vector<u32> in(512);
  for (auto& w : in) w = rng.next_u32() & 0x00FF'FFFF;
  session.put_input(in);
  const u64 cycles = session.run_irq();
  obs::validate_soc_ledger(soc);
  return cycles;
}

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const bool dft = params.get_str("workload") == "dft";
  auto run = [&](platform::BusKind kind) {
    return dft ? run_dft(kind) : run_idct(kind);
  };
  const u64 ahb = run(platform::BusKind::kAhb);
  const u64 axi4 = run(platform::BusKind::kAxi4);
  const u64 lite = run(platform::BusKind::kAxiLite);
  result.add_metric("ahb", ahb);
  result.add_metric("axi4", axi4);
  result.add_metric("axilite", lite);
  result.add_metric("axi4_over_ahb",
                    static_cast<double>(axi4) / static_cast<double>(ahb));
  result.add_metric("lite_over_ahb",
                    static_cast<double>(lite) / static_cast<double>(ahb));
}

}  // namespace

void register_e8_bus_portability(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e8_bus",
      .experiment = "E8",
      .title = "identical OCP + microcode + driver on three interconnects",
      .grid = {{.name = "workload", .values = {"idct", "dft"}}},
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
