// E11 (model validation) — three independent derivations of the software
// IDCT cost, plus the hardware path, on one table:
//   * paper Table I (measured on the Leon3 board): SW 5000 cycles,
//   * the analytic cost model (cpu::sw, used by E1),
//   * L3 assembly *executed* instruction by instruction on the ISS,
// and the OCP invocation they all compare against. The assembly kernel,
// the C++ datapath and the RAC produce bit-identical samples, so this is
// purely a timing cross-check of the substrates.
#include "scenarios.hpp"

#include "cpu/sw_kernels.hpp"
#include "drv/session.hpp"
#include "l3/asm.hpp"
#include "l3/core.hpp"
#include "l3/kernels.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"
#include "util/transforms.hpp"

namespace ouessant::scenarios {
namespace {

u64 run_asm_idct(bool* bit_exact) {
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);

  const l3::IdctLayout lay{};
  sram.load(lay.table, l3::idct_basis_image());
  util::Rng rng(12);
  i32 coef[64];
  for (int i = 0; i < 64; ++i) {
    coef[i] = rng.range(-1024, 1023);
    sram.poke(lay.src + static_cast<Addr>(i) * 4, util::to_word(coef[i]));
  }
  const auto program = l3::assemble(l3::idct8x8_source(lay), 0x4000'0000);
  sram.load(0x4000'0000, program.words);
  l3::Cpu cpu(kernel, "l3", sram, bus,
              l3::CpuConfig{.reset_pc = 0x4000'0000});
  const Cycle t0 = kernel.now();
  kernel.run_until([&] { return cpu.halted(); }, 500'000);
  const u64 cycles = kernel.now() - t0;

  i32 expected[64];
  util::fixed_idct8x8(coef, expected);
  *bit_exact = true;
  for (u32 i = 0; i < 64; ++i) {
    if (util::from_word(sram.peek(lay.dst + i * 4)) != expected[i]) {
      *bit_exact = false;
    }
  }
  return cycles;
}

u64 run_hw_idct() {
  platform::Soc soc;
  rac::IdctRac idct(soc.kernel(), "idct");
  core::Ocp& ocp = soc.add_ocp(idct);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = 64,
                           .out_words = 64});
  session.install(core::build_stream_program(
                      {.in_words = 64, .out_words = 64, .burst = 64}),
                  /*timed_program=*/false);
  util::Rng rng(12);
  std::vector<u32> in(64);
  for (auto& w : in) w = util::to_word(rng.range(-1024, 1023));
  session.put_input(in);
  const u64 cycles = session.run_irq();
  obs::validate_soc_ledger(soc);
  return cycles;
}

void run_point(const exp::ParamMap&, const exp::RunContext&,
               exp::Result& result) {
  bool bit_exact = false;
  const u64 executed = run_asm_idct(&bit_exact);
  const u64 analytic = cpu::sw::cost_idct8x8(cpu::CpuCosts{});
  const u64 hw = run_hw_idct();
  if (!bit_exact) result.fail("assembly output not bit-exact");
  result.add_metric("paper_sw", 5000);
  result.add_metric("analytic", analytic);
  result.add_metric("iss_executed", executed);
  result.add_metric("hw", hw);
  result.add_metric("bit_exact", bit_exact ? "yes" : "NO");
}

}  // namespace

void register_e11_l3_validation(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e11_l3",
      .experiment = "E11",
      .title = "software-IDCT cost, three independent derivations",
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
