// Tests for the paper's future-work features implemented as extensions:
// Dynamic Partial Reconfiguration (ReconfigSlot behind a free-mode
// dpr::IcapPort, E7's flow), standalone operation,
// the configuration-FIFO RAC, and VHDL interface generation.
#include <gtest/gtest.h>

#include "dpr/icap.hpp"
#include "drv/session.hpp"
#include "mem/sram.hpp"
#include "ouessant/codegen.hpp"
#include "ouessant/dpr.hpp"
#include "ouessant/rtlgen.hpp"
#include "platform/soc.hpp"
#include "rac/configurable_fir.hpp"
#include "rac/fir.hpp"
#include "rac/passthrough.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr Addr kCfg = 0x4003'0000;

// ------------------------------------------------------------------ DPR --

struct DprRig {
  DprRig()
      : identity(soc.kernel(), "identity", 32, 32, 0),
        negate(soc.kernel(), "doubler", 32, util::Q(16).from_double(2.0)),
        slot(soc.kernel(), "slot",
             {&identity, &negate}),
        ocp(soc.add_ocp(slot)),
        icap(soc.kernel(), "icap", soc.bus(),
             {.mode = dpr::IcapMode::kFree}),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = kProg, .in_base = kIn, .out_base = kOut,
                 .in_words = 32, .out_words = 32}) {
    icap.set_done_callback([this](u32) { slot.finish_swap(); });
    session.install(core::build_stream_program(
        {.in_words = 32, .out_words = 32, .burst = 32}));
  }

  [[nodiscard]] u32 bitstream_bytes(std::size_t index) {
    return core::ReconfigSlot::bitstream_bytes_for(
        slot.candidate(index).resource_tree().total());
  }

  /// E7's swap: gate the region, then stream the candidate's bitstream
  /// through the port. False when @p index was already active.
  bool swap(std::size_t index) {
    if (!slot.begin_swap(index)) return false;
    icap.start_load(0, bitstream_bytes(index), /*from_cache=*/false, 0,
                    slot.candidate(index).name());
    return true;
  }

  platform::Soc soc;
  rac::PassthroughRac identity;
  rac::ScaleRac negate;  // x2.0 gain
  core::ReconfigSlot slot;
  core::Ocp& ocp;
  dpr::IcapPort icap;
  drv::OcpSession session;
};

TEST(Dpr, SwapChangesBehaviourWithoutRewiring) {
  DprRig rig;
  const util::Q q(16);
  std::vector<u32> in(32);
  for (u32 i = 0; i < 32; ++i) in[i] = util::to_word(q.from_double(i));

  // Candidate 0: identity.
  rig.session.put_input(in);
  rig.session.run_poll();
  EXPECT_EQ(rig.session.get_output(), in);

  // Swap to candidate 1 (x2 gain), same OCP, same microcode.
  ASSERT_TRUE(rig.swap(1));
  rig.soc.kernel().run_until([&] { return !rig.slot.reconfiguring(); });
  EXPECT_EQ(rig.slot.active_index(), 1u);

  rig.session.put_input(in);
  rig.session.run_poll();
  const auto out = rig.session.get_output();
  for (u32 i = 0; i < 32; ++i) {
    EXPECT_NEAR(q.to_double(util::from_word(out[i])), 2.0 * i, 1e-3) << i;
  }
  EXPECT_EQ(rig.slot.swaps(), 1u);
}

TEST(Dpr, ReconfigurationTakesModeledTime) {
  DprRig rig;
  // Bitstream bytes at ICAP width, plus the fixed overhead.
  const u32 expected = rig.icap.stream_cycles_for(rig.bitstream_bytes(1)) +
                       rig.icap.icap().swap_overhead_cycles;
  EXPECT_GT(expected, 64u);  // bitstream is never free
  const Cycle t0 = rig.soc.kernel().now();
  ASSERT_TRUE(rig.swap(1));
  rig.soc.kernel().run_until([&] { return !rig.slot.reconfiguring(); });
  // The port commits the swap inside its tick at t0 + expected, so the
  // host sees the new region once that cycle has ended.
  EXPECT_EQ(rig.soc.kernel().now() - t0, expected + 1);
  EXPECT_EQ(rig.icap.busy_cycles_total(), expected);
  EXPECT_EQ(rig.icap.loads(), 1u);
}

TEST(Dpr, SwapToSelfIsFree) {
  DprRig rig;
  EXPECT_FALSE(rig.swap(0));
  EXPECT_FALSE(rig.slot.reconfiguring());
  EXPECT_FALSE(rig.icap.busy());
  EXPECT_EQ(rig.slot.swaps(), 0u);
  EXPECT_THROW(rig.slot.finish_swap(), SimError);  // nothing pending
  EXPECT_THROW((void)rig.slot.begin_swap(2), SimError);  // no candidate 2
}

TEST(Dpr, StartDuringReconfigurationFaults) {
  DprRig rig;
  ASSERT_TRUE(rig.swap(1));
  EXPECT_TRUE(rig.slot.reconfiguring());
  EXPECT_TRUE(rig.slot.busy());
  EXPECT_THROW(rig.slot.start(), SimError);
}

TEST(Dpr, SwapWhileActiveFaults) {
  DprRig rig;
  rig.session.put_input(std::vector<u32>(32, 1));
  rig.session.start_async();
  rig.soc.kernel().run_until([&] { return rig.slot.busy(); });
  EXPECT_THROW(rig.swap(1), SimError);
  EXPECT_FALSE(rig.icap.busy());
  rig.session.driver().wait_done_poll();
}

TEST(Dpr, CandidatesMustMatchTheRegionPins) {
  sim::Kernel k;
  rac::PassthroughRac a(k, "a", 32, 32);
  rac::PassthroughRac b(k, "b", 32, 48);  // different RAC-side pin width
  EXPECT_THROW(core::ReconfigSlot(k, "slot", {&a, &b}), ConfigError);
  EXPECT_THROW(core::ReconfigSlot(k, "slot", {}), ConfigError);
}

TEST(Dpr, FifoCapacitiesAreEnvelopedNotMatched) {
  // Same pin shape, different depths: the static region's FIFOs must be
  // sized to the largest candidate, so construction succeeds and the
  // specs report the element-wise max.
  sim::Kernel k;
  rac::PassthroughRac a(k, "a", 32, 32);
  rac::PassthroughRac b(k, "b", 64, 32);  // twice the chunks -> deeper FIFO
  core::ReconfigSlot slot(k, "slot", {&a, &b});
  const auto in = slot.input_specs();
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].rac_width, 32u);
  EXPECT_EQ(in[0].capacity_bits,
            std::max(a.input_specs()[0].capacity_bits,
                     b.input_specs()[0].capacity_bits));
}

TEST(Dpr, RegionEnvelopeIsMaxOverCandidates) {
  DprRig rig;
  const auto region = rig.slot.resource_tree().total();
  const auto a = rig.identity.resource_tree().total();
  const auto b = rig.negate.resource_tree().total();
  EXPECT_GE(region.luts, std::max(a.luts, b.luts));
  EXPECT_GE(region.dsps, std::max(a.dsps, b.dsps));
}

TEST(Dpr, BitstreamSizeScalesWithContent) {
  const u32 small = core::ReconfigSlot::bitstream_bytes_for(
      {.luts = 100, .ffs = 100});
  const u32 big = core::ReconfigSlot::bitstream_bytes_for(
      {.luts = 2000, .ffs = 1500, .bram36 = 4, .dsps = 8});
  EXPECT_GT(big, small);
  EXPECT_GE(small, 1024u);  // floor: configuration overhead
}

// ------------------------------------------------------------ standalone --

TEST(Standalone, RunsWithoutAnyCpuAccess) {
  // Processor-free design: program in ROM, preconfigured banks, autostart.
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);

  const core::Program prog = core::build_stream_program(
      {.in_words = 16, .out_words = 16, .burst = 16});
  mem::Rom rom("prog_rom", 0x0000'0000, prog.image());
  bus.connect_slave(rom, 0x0000'0000, rom.size_bytes());

  rac::PassthroughRac rac(kernel, "pass", 16, 32);
  core::Ocp ocp(kernel, "ocp", bus, rac, {.reg_base = 0x8000'0000});
  ocp.iface().preconfigure({0x0000'0000, kIn, kOut, 0, 0, 0, 0, 0},
                           static_cast<u32>(prog.size()));
  ocp.iface().set_standalone(/*autostart=*/true, /*auto_restart=*/false);

  std::vector<u32> in(16);
  for (u32 i = 0; i < 16; ++i) in[i] = 0xA000 + i;
  sram.load(kIn, in);

  kernel.run_until([&] { return ocp.iface().done(); });
  EXPECT_EQ(sram.dump(kOut, 16), in);
  EXPECT_EQ(rac.completed_ops(), 1u);
}

TEST(Standalone, AutoRestartStreamsForever) {
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);

  const core::Program prog = core::build_stream_program(
      {.in_words = 8, .out_words = 8, .burst = 8});
  sram.load(kProg, prog.image());

  rac::PassthroughRac rac(kernel, "pass", 8, 32);
  core::Ocp ocp(kernel, "ocp", bus, rac, {.reg_base = 0x8000'0000});
  ocp.iface().preconfigure({kProg, kIn, kOut, 0, 0, 0, 0, 0},
                           static_cast<u32>(prog.size()));
  ocp.iface().set_standalone(true, /*auto_restart=*/true);

  sram.load(kIn, {1, 2, 3, 4, 5, 6, 7, 8});
  kernel.run_until([&] { return rac.completed_ops() >= 3; }, 100'000);
  EXPECT_GE(rac.completed_ops(), 3u);
  EXPECT_EQ(sram.peek(kOut), 1u);
}

TEST(Standalone, PreconfigureValidatesAlignment) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 8, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  EXPECT_THROW(
      ocp.iface().preconfigure({2, 0, 0, 0, 0, 0, 0, 0}, 1),
      ConfigError);
}

// --------------------------------------------------- configuration FIFO --

struct CfgFirRig {
  CfgFirRig()
      : fir(soc.kernel(), "cfir", /*taps_n=*/4, /*block_len=*/16),
        ocp(soc.add_ocp(fir)),
        session(soc.cpu(), soc.sram(), ocp,
                {.prog_base = kProg, .in_base = kIn, .out_base = kOut,
                 .in_words = 16, .out_words = 16}) {}

  /// Microcode with an optional coefficient update in front: taps come
  /// from bank 3 via FIFO1, data from bank 1 via FIFO0.
  core::Program program(bool with_config) {
    core::Program p;
    if (with_config) p.mvtc(3, 0, 4, /*fifo=*/1);
    p.mvtc(1, 0, 16, 0).exec().mvfc(2, 0, 16, 0).eop();
    return p;
  }

  platform::Soc soc;
  rac::ConfigurableFirRac fir;
  core::Ocp& ocp;
  drv::OcpSession session;
};

TEST(ConfigFifo, UnconfiguredFilterMutes) {
  CfgFirRig rig;
  rig.session.install(rig.program(/*with_config=*/false));
  rig.session.put_input(std::vector<u32>(16, util::to_word(1 << 16)));
  rig.session.run_poll();
  for (const u32 w : rig.session.get_output()) {
    EXPECT_EQ(util::from_word(w), 0);
  }
}

TEST(ConfigFifo, CoefficientsArriveThroughFifo1) {
  CfgFirRig rig;
  rig.session.install(rig.program(/*with_config=*/true));
  rig.session.driver().set_bank(3, kCfg);
  // Identity filter: h = {1.0, 0, 0, 0} in Q16.
  rig.soc.sram().load(kCfg, {static_cast<u32>(1 << 16), 0, 0, 0});
  std::vector<u32> in(16);
  for (u32 i = 0; i < 16; ++i) in[i] = util::to_word((static_cast<i32>(i) - 8) << 16);
  rig.session.put_input(in);
  rig.session.run_poll();
  EXPECT_EQ(rig.session.get_output(), in);
  EXPECT_EQ(rig.fir.reconfig_count(), 1u);
}

TEST(ConfigFifo, ConfigurationPersistsAcrossOps) {
  CfgFirRig rig;
  // First run configures, second run reuses the coefficients.
  rig.session.install(rig.program(true));
  rig.session.driver().set_bank(3, kCfg);
  rig.soc.sram().load(kCfg, {static_cast<u32>(2 << 16), 0, 0, 0});  // x2
  std::vector<u32> in(16);
  for (u32 i = 0; i < 16; ++i) in[i] = util::to_word(static_cast<i32>(i) << 16);
  rig.session.put_input(in);
  rig.session.run_poll();

  rig.session.install(rig.program(false));  // no config this time
  rig.session.put_input(in);
  rig.session.run_poll();
  const auto out = rig.session.get_output();
  for (u32 i = 0; i < 16; ++i) {
    EXPECT_EQ(util::from_word(out[i]), static_cast<i32>(i * 2) << 16) << i;
  }
  EXPECT_EQ(rig.fir.reconfig_count(), 1u);
}

TEST(ConfigFifo, ReconfigureBetweenOpsChangesResponse) {
  CfgFirRig rig;
  rig.session.install(rig.program(true));
  rig.session.driver().set_bank(3, kCfg);
  std::vector<u32> impulse(16, 0);
  impulse[0] = util::to_word(1 << 16);

  rig.soc.sram().load(kCfg, {static_cast<u32>(3 << 16), 0, 0, 0});
  rig.session.put_input(impulse);
  rig.session.run_poll();
  EXPECT_EQ(util::from_word(rig.session.get_output()[0]), 3 << 16);

  rig.soc.sram().load(kCfg, {static_cast<u32>(5 << 16), 0, 0, 0});
  rig.session.put_input(impulse);
  rig.session.run_poll();
  EXPECT_EQ(util::from_word(rig.session.get_output()[0]), 5 << 16);
  EXPECT_EQ(rig.fir.reconfig_count(), 2u);
}

TEST(ConfigFifo, VerifierKnowsAboutBothInputFifos) {
  CfgFirRig rig;
  core::Program p;
  p.mvtc(3, 0, 4, /*fifo=*/2);  // FIFO2 does not exist (only 0 and 1)
  p.eop();
  EXPECT_THROW(rig.session.install(p), ConfigError);
}

TEST(ConfigFifo, RstMidOperationThenRelaunch) {
  // Identity taps, then only two of the 16 samples: the filter blocks
  // mid-block and the controller waits in exec. RST must return the core
  // to idle, keeping the loaded taps; a core left mid-block eats the
  // relaunch's samples as the rest of its old block, and the relaunch
  // never completes.
  CfgFirRig rig;
  core::Program stalled;
  stalled.mvtc(3, 0, 4, /*fifo=*/1).mvtc(1, 0, 2, 0).exec();
  stalled.mvfc(2, 0, 16, 0).eop();
  rig.session.install(stalled);
  rig.session.driver().set_bank(3, kCfg);
  rig.soc.sram().load(kCfg, {static_cast<u32>(1 << 16), 0, 0, 0});
  std::vector<u32> in(16);
  for (u32 i = 0; i < 16; ++i) in[i] = util::to_word(static_cast<i32>(i) << 16);
  rig.session.put_input(in);
  rig.session.start_async();
  rig.soc.cpu().spend(2000);
  ASSERT_TRUE(rig.fir.busy());
  ASSERT_TRUE(rig.ocp.controller().running());

  rig.session.recover();
  EXPECT_FALSE(rig.fir.busy());
  EXPECT_FALSE(rig.fir.exec_pending());

  rig.session.install(rig.program(/*with_config=*/false));
  rig.session.run_poll();
  EXPECT_EQ(rig.session.get_output(), in);
  EXPECT_EQ(rig.fir.completed_ops(), 1u);
  EXPECT_EQ(rig.fir.reconfig_count(), 1u);
}

// ----------------------------------------------------------- batch mode --

TEST(BatchProgram, OneInvocationManyBlocks) {
  // 8 IDCT-sized blocks, one start bit, one interrupt: the v2 loop plus
  // post-increment addressing walks the whole buffer autonomously.
  constexpr u32 kBlocks = 8;
  constexpr u32 kBlockWords = 64;
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", kBlockWords, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut,
                           .in_words = kBlocks * kBlockWords,
                           .out_words = kBlocks * kBlockWords});
  const core::Program p = core::build_batch_program(
      {.in_words = kBlockWords, .out_words = kBlockWords}, kBlocks);
  ASSERT_EQ(p.size(), 5u);  // mvtc, exec, mvfc, loop, eop
  session.install(p);

  util::Rng rng(15);
  std::vector<u32> in(kBlocks * kBlockWords);
  for (auto& w : in) w = rng.next_u32();
  session.put_input(in);
  session.run_irq();
  EXPECT_EQ(session.get_output(), in);
  EXPECT_EQ(rac.completed_ops(), kBlocks);          // 8 RAC operations...
  EXPECT_EQ(ocp.controller().stats().runs, 1u);     // ...one program run
}

TEST(BatchProgram, MatchesPerBlockInvocations) {
  constexpr u32 kBlocks = 4;
  constexpr u32 kBlockWords = 16;
  util::Rng rng(16);
  std::vector<u32> in(kBlocks * kBlockWords);
  for (auto& w : in) w = rng.next_u32() & 0xFFFF;

  auto run = [&](bool batched) {
    platform::Soc soc;
    const util::Q q(16);
    rac::ScaleRac gain(soc.kernel(), "gain", kBlockWords,
                       q.from_double(1.5));
    core::Ocp& ocp = soc.add_ocp(gain);
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = kProg, .in_base = kIn,
                             .out_base = kOut,
                             .in_words = kBlocks * kBlockWords,
                             .out_words = kBlocks * kBlockWords});
    if (batched) {
      session.install(core::build_batch_program(
          {.in_words = kBlockWords, .out_words = kBlockWords}, kBlocks));
      session.put_input(in);
      session.run_irq();
    } else {
      session.install(core::build_stream_program(
          {.in_words = kBlockWords, .out_words = kBlockWords,
           .burst = kBlockWords, .overlap = false}));
      for (u32 b = 0; b < kBlocks; ++b) {
        // Per-block invocations slide the banks from the CPU side.
        session.driver().set_bank(1, kIn + b * kBlockWords * 4);
        session.driver().set_bank(2, kOut + b * kBlockWords * 4);
        soc.sram().load(kIn + b * kBlockWords * 4,
                        {in.begin() + b * kBlockWords,
                         in.begin() + (b + 1) * kBlockWords});
        session.run_poll();
      }
    }
    return soc.sram().dump(kOut, kBlocks * kBlockWords);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(BatchProgram, Validation) {
  EXPECT_THROW(core::build_batch_program({.in_words = 64, .out_words = 64}, 0),
               ConfigError);
  EXPECT_THROW(
      core::build_batch_program({.in_words = 64, .out_words = 64}, 257),
      ConfigError);
  EXPECT_THROW(
      core::build_batch_program({.in_words = 512, .out_words = 512}, 2),
      ConfigError);
}

// ---------------------------------------------------------------- rtlgen --

TEST(RtlGen, EntityContainsEveryPin) {
  sim::Kernel k;
  rac::ConfigurableFirRac fir(k, "cfir", 4, 64);
  const auto spec = core::rtlgen::spec_from_rac(fir, "my_fir");
  const std::string vhdl = core::rtlgen::generate_rac_entity(spec);
  EXPECT_NE(vhdl.find("entity my_fir is"), std::string::npos);
  EXPECT_NE(vhdl.find("start_op : in  std_logic"), std::string::npos);
  EXPECT_NE(vhdl.find("in0_dout"), std::string::npos);
  EXPECT_NE(vhdl.find("in1_dout"), std::string::npos);  // config FIFO
  EXPECT_NE(vhdl.find("out0_din"), std::string::npos);
  EXPECT_NE(vhdl.find("std_logic_vector(31 downto 0)"), std::string::npos);
  EXPECT_TRUE(core::rtlgen::looks_like_valid_vhdl(vhdl)) << vhdl;
}

TEST(RtlGen, WrapperInstantiatesFifosAndRac) {
  sim::Kernel k;
  rac::PassthroughRac pass(k, "p", 32, 48);
  const auto spec = core::rtlgen::spec_from_rac(pass, "wide_pass");
  const std::string vhdl = core::rtlgen::generate_ocp_wrapper(spec);
  EXPECT_NE(vhdl.find("entity wide_pass_ocp_wrapper is"), std::string::npos);
  EXPECT_NE(vhdl.find("u_fifo_in0 : entity work.ouessant_width_fifo"),
            std::string::npos);
  EXPECT_NE(vhdl.find("RD_WIDTH => 48"), std::string::npos);  // serializer
  EXPECT_NE(vhdl.find("WR_WIDTH => 48"), std::string::npos);  // deserializer
  EXPECT_NE(vhdl.find("u_rac : entity work.wide_pass"), std::string::npos);
  EXPECT_TRUE(core::rtlgen::looks_like_valid_vhdl(vhdl)) << vhdl;
}

TEST(RtlGen, InstantiationTemplateRendersAllPorts) {
  sim::Kernel k;
  rac::ConfigurableFirRac fir(k, "cfir", 4, 64);
  const auto spec = core::rtlgen::spec_from_rac(fir, "my_fir");
  const std::string inst = core::rtlgen::generate_instantiation(spec);
  EXPECT_NE(inst.find("my_fir_ocp_wrapper"), std::string::npos);
  EXPECT_NE(inst.find("ctl_in1_din"), std::string::npos);
  EXPECT_NE(inst.find("ctl_out0_dout"), std::string::npos);
}

TEST(RtlGen, ValidatorCatchesBrokenText) {
  EXPECT_FALSE(core::rtlgen::looks_like_valid_vhdl("entity x is\n port (\n"));
  EXPECT_TRUE(core::rtlgen::looks_like_valid_vhdl(
      "entity x is\nend entity x;\n"));
}

TEST(RtlGen, WidthFifoPackageIsStructurallyValid) {
  const std::string vhdl = core::rtlgen::generate_width_fifo_package();
  EXPECT_NE(vhdl.find("entity ouessant_width_fifo is"), std::string::npos);
  EXPECT_NE(vhdl.find("WR_WIDTH"), std::string::npos);
  EXPECT_NE(vhdl.find("architecture rtl"), std::string::npos);
  EXPECT_TRUE(core::rtlgen::looks_like_valid_vhdl(vhdl)) << vhdl;
}

TEST(RtlGen, DeterministicOutput) {
  sim::Kernel k;
  rac::PassthroughRac pass(k, "p", 8, 32);
  const auto spec = core::rtlgen::spec_from_rac(pass, "p");
  EXPECT_EQ(core::rtlgen::generate_ocp_wrapper(spec),
            core::rtlgen::generate_ocp_wrapper(spec));
}

}  // namespace
}  // namespace ouessant
