// Failure-injection tests: misconfigured banks that decode to bus holes,
// misbehaving RAC cores, contract violations — the error paths a real
// bring-up hits, plus VecAdd multi-stream routing and DMA256 encoding
// end-to-end.
#include <gtest/gtest.h>

#include "drv/session.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/block_rac.hpp"
#include "rac/passthrough.hpp"
#include "rac/vecadd.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;
constexpr Addr kIn2 = 0x4003'0000;

TEST(FaultInjection, BankPointingIntoBusHole) {
  // The CPU misconfigures bank 1 to an unmapped address; the OCP's DMA
  // read hits a bus error (modelled as SimError out of the kernel).
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 16, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 16,
                           .out_words = 16});
  session.install(core::build_stream_program(
      {.in_words = 16, .out_words = 16, .burst = 16}));
  session.driver().set_bank(1, 0x9000'0000);  // nothing mapped there
  session.driver().start();
  EXPECT_THROW(soc.kernel().run(200), SimError);
}

TEST(FaultInjection, ProgramBankIntoBusHole) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 16, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 16,
                           .out_words = 16});
  session.install(core::build_stream_program(
      {.in_words = 16, .out_words = 16, .burst = 16}));
  session.driver().set_bank(0, 0xA000'0000);  // fetches will error
  session.driver().start();
  EXPECT_THROW(soc.kernel().run(64), SimError);
}

/// A RAC that lies about its output size — the contract check must trip.
class BrokenRac : public rac::BlockRac {
 public:
  BrokenRac(sim::Kernel& k, std::string name)
      : BlockRac(k, std::move(name),
                 Shape{.in_chunks = 4, .out_chunks = 4, .in_width = 32,
                       .out_width = 32, .compute_cycles = 0}) {}

  res::ResourceNode resource_tree() const override {
    return {.name = name(), .self = {.luts = 1}, .children = {}};
  }

 protected:
  std::vector<u64> compute(const std::vector<u64>& in) override {
    return {in[0]};  // wrong count
  }
};

TEST(FaultInjection, RacProducingWrongChunkCount) {
  platform::Soc soc;
  BrokenRac rac(soc.kernel(), "broken");
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 4,
                           .out_words = 4});
  session.install(core::build_stream_program(
      {.in_words = 4, .out_words = 4, .burst = 4}));
  session.put_input({1, 2, 3, 4});
  session.driver().start();
  EXPECT_THROW(soc.kernel().run(200), SimError);
}

TEST(FaultInjection, TimeoutOnDeadlockedMicrocode) {
  // mvfc with nothing ever produced: the transfer stalls forever and the
  // driver's poll timeout fires (this is how the simulation surfaces the
  // deadlock the static verifier cannot prove).
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 16, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 16,
                           .out_words = 16});
  core::Program p;
  p.mvfc(2, 0, 16).eop();  // drain-before-produce
  session.install(p);
  session.driver().start();
  EXPECT_THROW(session.driver().wait_done_poll(16, 10'000), SimError);
}

TEST(Dma256, LenFieldZeroEncodingRunsEndToEnd) {
  // A 256-word burst encodes its length field as 0; make sure the whole
  // path (encode -> fetch -> decode -> 256-beat burst) agrees.
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", 256, 32);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 256,
                           .out_words = 256});
  const core::Program p = core::build_stream_program(
      {.in_words = 256, .out_words = 256, .burst = 256});
  ASSERT_EQ(p.size(), 4u);
  ASSERT_EQ(p.image()[0] & 0xFF, 0u);  // DMA256 encodes as 0
  session.install(p);
  util::Rng rng(77);
  std::vector<u32> in(256);
  for (auto& w : in) w = rng.next_u32();
  session.put_input(in);
  session.run_poll();
  EXPECT_EQ(session.get_output(), in);
}

TEST(VecAdd, TwoOperandStreams) {
  platform::Soc soc;
  rac::VecAddRac add(soc.kernel(), "vadd", 64);
  core::Ocp& ocp = soc.add_ocp(add);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 64,
                           .out_words = 64});
  core::Program p;
  p.mvtc(1, 0, 64, /*fifo=*/0);  // operand A
  p.mvtc(3, 0, 64, /*fifo=*/1);  // operand B
  p.exec().mvfc(2, 0, 64, 0).eop();
  session.install(p);
  session.driver().set_bank(3, kIn2);

  util::Rng rng(5);
  std::vector<u32> a(64), b(64);
  for (u32 i = 0; i < 64; ++i) {
    a[i] = util::to_word(rng.range(-100000, 100000));
    b[i] = util::to_word(rng.range(-100000, 100000));
  }
  session.put_input(a);
  soc.sram().load(kIn2, b);
  session.run_poll();
  const auto out = session.get_output();
  for (u32 i = 0; i < 64; ++i) {
    EXPECT_EQ(util::from_word(out[i]),
              util::from_word(a[i]) + util::from_word(b[i]))
        << i;
  }
}

TEST(VecAdd, SaturatesInsteadOfWrapping) {
  platform::Soc soc;
  rac::VecAddRac add(soc.kernel(), "vadd", 2);
  core::Ocp& ocp = soc.add_ocp(add);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 2,
                           .out_words = 2});
  core::Program p;
  p.mvtc(1, 0, 2, 0).mvtc(3, 0, 2, 1).exec().mvfc(2, 0, 2, 0).eop();
  session.install(p);
  session.driver().set_bank(3, kIn2);
  session.put_input({util::to_word(0x7FFF'FFF0), util::to_word(-0x7FFF'FFF0)});
  soc.sram().load(kIn2, {util::to_word(0x100), util::to_word(-0x100)});
  session.run_poll();
  const auto out = session.get_output();
  EXPECT_EQ(util::from_word(out[0]), 0x7FFF'FFFF);           // +sat
  EXPECT_EQ(util::from_word(out[1]), -0x7FFF'FFFF - 1);      // -sat
}

TEST(VecAdd, LockStepHandlesSkewedArrival) {
  // Operand B arrives much later than A (tiny bursts, interleaved): the
  // lock-step core must stall, not misalign.
  platform::Soc soc;
  rac::VecAddRac add(soc.kernel(), "vadd", 16);
  core::Ocp& ocp = soc.add_ocp(add);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 16,
                           .out_words = 16});
  core::Program p;
  p.mvtc(1, 0, 16, 0);  // all of A first
  p.execs();            // start before B exists
  p.mvtc(3, 0, 16, 1);  // then B
  p.mvfc(2, 0, 16, 0).eop();
  session.install(p);
  session.driver().set_bank(3, kIn2);
  std::vector<u32> a(16), b(16);
  for (u32 i = 0; i < 16; ++i) {
    a[i] = util::to_word(static_cast<i32>(i));
    b[i] = util::to_word(static_cast<i32>(100 * i));
  }
  session.put_input(a);
  soc.sram().load(kIn2, b);
  session.run_poll();
  const auto out = session.get_output();
  for (u32 i = 0; i < 16; ++i) {
    EXPECT_EQ(util::from_word(out[i]), static_cast<i32>(101 * i)) << i;
  }
}

TEST(VecAdd, RstMidOperationThenRelaunch) {
  // Operand B stops after two elements: the core blocks mid-op and the
  // controller waits in exec. RST must return the core to idle; a core
  // left mid-op eats the relaunch's operands as the rest of its old
  // vector, and the relaunch never completes.
  platform::Soc soc;
  rac::VecAddRac add(soc.kernel(), "vadd", 16);
  core::Ocp& ocp = soc.add_ocp(add);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = 16,
                           .out_words = 16});
  core::Program stalled;
  stalled.mvtc(1, 0, 16, 0).mvtc(3, 0, 2, 1).exec().mvfc(2, 0, 16, 0).eop();
  session.install(stalled);
  session.driver().set_bank(3, kIn2);
  std::vector<u32> a(16), b(16);
  for (u32 i = 0; i < 16; ++i) {
    a[i] = util::to_word(static_cast<i32>(i));
    b[i] = util::to_word(static_cast<i32>(100 * i));
  }
  session.put_input(a);
  soc.sram().load(kIn2, b);
  session.start_async();
  soc.cpu().spend(2000);
  ASSERT_TRUE(add.busy());
  ASSERT_TRUE(ocp.controller().running());

  session.recover();
  EXPECT_FALSE(add.busy());
  EXPECT_FALSE(add.exec_pending());

  core::Program p;
  p.mvtc(1, 0, 16, 0).mvtc(3, 0, 16, 1).exec().mvfc(2, 0, 16, 0).eop();
  session.install(p);
  session.run_poll();
  const auto out = session.get_output();
  for (u32 i = 0; i < 16; ++i) {
    EXPECT_EQ(util::from_word(out[i]), static_cast<i32>(101 * i)) << i;
  }
  EXPECT_EQ(add.completed_ops(), 1u);
}

}  // namespace
}  // namespace ouessant
