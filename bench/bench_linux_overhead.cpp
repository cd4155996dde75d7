// E3 — reproduces §V-B's baremetal-vs-Linux analysis: "When running it
// without Linux, the DFT took 4000 cycles to compute, which gives an
// overhead of 3000 cycles coming from Linux. This comes from system
// calls."
//
// We run the 256-point DFT invocation in four environments:
//   * baremetal, polling driver
//   * baremetal, interrupt driver
//   * Linux, mmap (zero-copy) driver — the paper's driver
//   * Linux, copy_{from,to}_user driver — the naive alternative
// and report the per-invocation cycles and the derived OS overhead.
#include "scenarios.hpp"

#include "drv/linux_env.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr Addr kUserIn = 0x4010'0000;
constexpr Addr kUserOut = 0x4011'0000;

struct Rig {
  Rig()
      : dft(soc.kernel(), "dft", {.points = 256}),
        ocp(soc.add_ocp(dft)),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = kProg, .in_base = kIn, .out_base = kOut,
                 .in_words = 512, .out_words = 512}) {
    session.install(core::figure4_program(), /*timed_program=*/false);
    util::Rng rng(3);
    std::vector<u32> in(512);
    for (auto& w : in) w = static_cast<u32>(rng.next_u32() & 0x00FF'FFFF);
    session.put_input(in);
    soc.sram().load(kUserIn, in);
  }

  platform::Soc soc;
  rac::DftRac dft;
  core::Ocp& ocp;
  drv::OcpSession session;
};

void run_point(const exp::ParamMap&, const exp::RunContext&,
               exp::Result& result) {
  u64 bm_poll = 0;
  u64 bm_irq = 0;
  u64 lx_mmap = 0;
  u64 lx_copy = 0;

  {
    Rig rig;
    bm_poll = rig.session.run_poll();
    obs::validate_soc_ledger(rig.soc);
  }
  {
    Rig rig;
    bm_irq = rig.session.run_irq();
    obs::validate_soc_ledger(rig.soc);
  }
  {
    Rig rig;
    drv::LinuxEnv env;
    env.invoke(rig.session, drv::XferMode::kMmap);  // warm
    lx_mmap = env.invoke(rig.session, drv::XferMode::kMmap);
    obs::validate_soc_ledger(rig.soc);
  }
  {
    Rig rig;
    drv::LinuxEnv env;
    env.invoke(rig.session, drv::XferMode::kCopyUser, kUserIn, kUserOut);
    lx_copy =
        env.invoke(rig.session, drv::XferMode::kCopyUser, kUserIn, kUserOut);
    obs::validate_soc_ledger(rig.soc);
  }

  result.add_metric("bm_poll", bm_poll);
  result.add_metric("bm_irq", bm_irq);
  result.add_metric("lx_mmap", lx_mmap);
  result.add_metric("lx_copy", lx_copy);
  result.add_metric("linux_overhead", lx_mmap - bm_irq);
  result.add_metric("copy_extra", lx_copy - lx_mmap);
  result.add_metric("copy_per_word",
                    static_cast<double>(lx_copy - lx_mmap) / 1024.0);
}

}  // namespace

void register_e3_linux_overhead(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e3_linux_overhead",
      .experiment = "E3",
      .title = "256-pt DFT invocation cost by environment (cycles)",
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
