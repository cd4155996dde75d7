// Tests for the driver layer: baremetal driver protocol, session helper,
// and the Linux OS cost model (mmap vs copy_to_user drivers).
#include <gtest/gtest.h>

#include "cpu/sw_kernels.hpp"
#include "drv/linux_env.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "rac/passthrough.hpp"
#include "util/rng.hpp"
#include "util/transforms.hpp"

namespace ouessant {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr Addr kUserIn = 0x4010'0000;
constexpr Addr kUserOut = 0x4011'0000;

struct Rig {
  explicit Rig(u32 words = 64)
      : rac(soc.kernel(), "pass", words, 32),
        ocp(soc.add_ocp(rac)),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = kProg, .in_base = kIn, .out_base = kOut,
                 .in_words = words, .out_words = words}),
        words(words) {
    session.install(core::build_stream_program(
        {.in_words = words, .out_words = words, .burst = std::min(words, 64u),
         .overlap = true}));
  }

  std::vector<u32> random_input(u64 seed = 5) const {
    util::Rng rng(seed);
    std::vector<u32> v(words);
    for (auto& w : v) w = rng.next_u32();
    return v;
  }

  platform::Soc soc;
  rac::PassthroughRac rac;
  core::Ocp& ocp;
  drv::OcpSession session;
  u32 words;
};

TEST(Driver, InstallTimedVsBackdoorSameImage) {
  Rig a;
  Rig b;
  const auto prog = core::build_stream_program(
      {.in_words = 64, .out_words = 64, .burst = 64});
  a.session.driver().install_program(kProg, prog);
  b.session.driver().install_program_backdoor(b.soc.sram(), kProg, prog);
  EXPECT_EQ(a.soc.sram().dump(kProg, static_cast<u32>(prog.size())),
            b.soc.sram().dump(kProg, static_cast<u32>(prog.size())));
  // Timed install consumed simulated time; backdoor (mostly) did not.
  EXPECT_GT(a.soc.kernel().now(), b.soc.kernel().now());
}

TEST(Driver, PollAndIrqAgreeOnResults) {
  Rig rig;
  const auto in = rig.random_input(1);
  rig.session.put_input(in);
  const u64 poll_cycles = rig.session.run_poll();
  EXPECT_EQ(rig.session.get_output(), in);

  rig.session.put_input(in);
  const u64 irq_cycles = rig.session.run_irq();
  EXPECT_EQ(rig.session.get_output(), in);

  // Both complete in the same ballpark (poll granularity apart).
  const u64 hi = std::max(poll_cycles, irq_cycles);
  const u64 lo = std::min(poll_cycles, irq_cycles);
  EXPECT_LT(hi - lo, 64u);
}

TEST(Driver, PollCountReported) {
  Rig rig;
  rig.session.put_input(rig.random_input(2));
  rig.session.driver().start();
  const u32 polls = rig.session.driver().wait_done_poll(/*poll_gap=*/8);
  EXPECT_GT(polls, 1u);
}

TEST(Driver, BankIndexValidated) {
  Rig rig;
  EXPECT_THROW(rig.session.driver().set_bank(8, 0x4000'0000), SimError);
}

TEST(Driver, SessionRejectsBadPrograms) {
  Rig rig;
  core::Program p;
  p.mvtc(1, 0, 64);  // missing eop
  EXPECT_THROW(rig.session.install(p), ConfigError);
  core::Program p2;
  p2.mvtc(1, 0, 64, /*fifo=*/2).eop();  // no such FIFO on this RAC
  EXPECT_THROW(rig.session.install(p2), ConfigError);
}

TEST(Driver, SessionLayoutValidated) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 4, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  EXPECT_THROW(drv::OcpSession(soc.cpu(), soc.sram(), ocp,
                               {.prog_base = kProg, .in_base = kIn,
                                .out_base = kOut, .in_words = 0,
                                .out_words = 0}),
               ConfigError);
}

TEST(LinuxEnv, MmapInvokeAddsFixedOverhead) {
  Rig rig;
  const auto in = rig.random_input(3);

  // Baremetal IRQ reference run.
  rig.session.put_input(in);
  const u64 baremetal = rig.session.run_irq();

  drv::LinuxEnv linux_env;
  rig.session.put_input(in);
  const u64 under_linux = linux_env.invoke(rig.session, drv::XferMode::kMmap);
  EXPECT_EQ(rig.session.get_output(), in);

  const u64 overhead = under_linux - baremetal;
  const u64 fixed = linux_env.costs().fixed_overhead();
  // The Linux run pays the kernel path on top of the device time.
  EXPECT_GE(overhead, fixed - 64);
  EXPECT_LE(overhead, fixed + 64);
}

TEST(LinuxEnv, OverheadIsInPapersBand) {
  // §V-B: "an overhead of 3000 cycles coming from Linux".
  const drv::LinuxCosts costs;
  EXPECT_GE(costs.fixed_overhead(), 2500u);
  EXPECT_LE(costs.fixed_overhead(), 3200u);
}

TEST(LinuxEnv, CopyUserMovesDataAndCostsMore) {
  Rig rig;
  const auto in = rig.random_input(4);
  rig.soc.sram().load(kUserIn, in);

  drv::LinuxEnv linux_env;
  const u64 copy_cycles = linux_env.invoke(rig.session, drv::XferMode::kCopyUser,
                                           kUserIn, kUserOut);
  EXPECT_EQ(rig.soc.sram().dump(kUserOut, rig.words), in);

  rig.session.put_input(in);
  const u64 mmap_cycles = linux_env.invoke(rig.session, drv::XferMode::kMmap);
  EXPECT_GT(copy_cycles, mmap_cycles);
  const u64 per_word = linux_env.costs().copy_user_per_word;
  EXPECT_NEAR(static_cast<double>(copy_cycles - mmap_cycles),
              static_cast<double>(2u * rig.words * per_word), 64.0);
}

TEST(LinuxEnv, RepeatedInvocationsAreStable) {
  Rig rig;
  drv::LinuxEnv linux_env;
  const auto in = rig.random_input(6);
  u64 prev = 0;
  for (int i = 0; i < 3; ++i) {
    rig.session.put_input(in);
    const u64 c = linux_env.invoke(rig.session, drv::XferMode::kMmap);
    if (i > 0) {
      EXPECT_EQ(c, prev) << "invocation " << i;
    }
    prev = c;
  }
}

TEST(SwKernels, IdctCostInPapersBand) {
  // Table I SW column: 5000 cycles for the software IDCT.
  const u64 c = cpu::sw::cost_idct8x8(cpu::CpuCosts{});
  EXPECT_GE(c, 4000u);
  EXPECT_LE(c, 6000u);
}

TEST(SwKernels, DftSoftfloatCostInPapersBand) {
  // Table I SW column: ~600e3 cycles for the 256-point software DFT.
  const u64 c = cpu::sw::cost_dft_softfloat(cpu::CpuCosts{}, 256);
  EXPECT_GE(c, 450'000u);
  EXPECT_LE(c, 750'000u);
}

TEST(SwKernels, IdctComputesCorrectValues) {
  platform::Soc soc;
  util::Rng rng(9);
  i32 coef[64];
  for (int i = 0; i < 64; ++i) {
    coef[i] = rng.range(-512, 511);
    soc.sram().poke(kIn + static_cast<Addr>(i) * 4, util::to_word(coef[i]));
  }
  cpu::sw::sw_idct8x8(soc.cpu(), soc.sram(), kIn, kOut);
  i32 expected[64];
  util::fixed_idct8x8(coef, expected);
  for (u32 i = 0; i < 64; ++i) {
    EXPECT_EQ(util::from_word(soc.sram().peek(kOut + i * 4)), expected[i]);
  }
}

TEST(SwKernels, SwTimeAdvancesSimulation) {
  platform::Soc soc;
  const Cycle t0 = soc.kernel().now();
  const u64 charged = cpu::sw::sw_idct8x8(soc.cpu(), soc.sram(), kIn, kOut);
  EXPECT_EQ(soc.kernel().now() - t0, charged);
}

TEST(SwKernels, CopyWordsCopiesAndCharges) {
  platform::Soc soc;
  soc.sram().load(kIn, {1, 2, 3, 4});
  const u64 c = cpu::sw::sw_copy_words(soc.cpu(), soc.sram(), kOut, kIn, 4);
  EXPECT_EQ(soc.sram().dump(kOut, 4), (std::vector<u32>{1, 2, 3, 4}));
  EXPECT_GT(c, 4u * 4u);  // at least a few cycles per word
}

TEST(CostMeter, ArithmeticAddsUp) {
  cpu::CpuCosts costs;
  cpu::CostMeter m(costs);
  m.alu(10);
  m.mul(2);
  m.load(3);
  m.fadd(1);
  EXPECT_EQ(m.cycles(), 10u * costs.alu + 2u * costs.mul + 3u * costs.load +
                            costs.fadd);
  EXPECT_EQ(m.total_ops(), 16u);
  EXPECT_EQ(m.float_ops(), 1u);
}

TEST(SwKernels, CostsScaleWithProblemSize) {
  const cpu::CpuCosts costs;
  u64 prev = 0;
  for (const u32 n : {64u, 128u, 256u, 512u, 1024u}) {
    const u64 c = cpu::sw::cost_dft_softfloat(costs, n);
    EXPECT_GT(c, prev) << n;
    prev = c;
  }
  // n log n: doubling the size a bit more than doubles the cost.
  const u64 c256 = cpu::sw::cost_dft_softfloat(costs, 256);
  const u64 c512 = cpu::sw::cost_dft_softfloat(costs, 512);
  EXPECT_GT(c512, 2 * c256);
  EXPECT_LT(c512, 3 * c256);
}

TEST(SwKernels, SoftFloatDominatesDftCost) {
  // With a hardware FPU (fadd/fmul ~ integer cost) the SW DFT would drop
  // by an order of magnitude — documenting why the paper's 600k figure
  // implies an FPU-less Leon3.
  cpu::CpuCosts with_fpu;
  with_fpu.fadd = 2;
  with_fpu.fmul = 3;
  with_fpu.fdiv = 20;
  const u64 soft = cpu::sw::cost_dft_softfloat(cpu::CpuCosts{}, 256);
  const u64 hard = cpu::sw::cost_dft_softfloat(with_fpu, 256);
  EXPECT_GT(soft, 5 * hard);
}

TEST(Gpp, AccountingBuckets) {
  platform::Soc soc;
  soc.cpu().spend(100);
  EXPECT_EQ(soc.cpu().compute_cycles(), 100u);
  soc.cpu().write32(0x4000'0000, 1);
  EXPECT_GT(soc.cpu().bus_cycles(), 0u);
  cpu::IrqLine line;
  line.raise();
  soc.cpu().wait_for_irq(line);
  EXPECT_EQ(soc.cpu().idle_cycles(), 0u);  // already raised: no wait
}

TEST(Gpp, WaitForIrqTimesOut) {
  platform::Soc soc;
  cpu::IrqLine line;
  EXPECT_THROW(soc.cpu().wait_for_irq(line, 100), SimError);
}

}  // namespace
}  // namespace ouessant
