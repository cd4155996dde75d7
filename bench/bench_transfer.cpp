// E4 — reproduces §V-B's transfer-efficiency analysis: "we have roughly
// 1500 cycles needed for data transfer, and 1024 32-bit words to
// transfer. This means that around 1.5 cycles per word were required."
//
// The scenario measures the OCP moving 1024 words (512 in + 512 out, the
// paper's DFT traffic) through a streaming identity datapath while
// sweeping the mvtc/mvfc burst length and the v1/v2 microcode shape, and
// reports effective cycles/word — exposing both the paper's figure at
// DMA64 and the burst-length design space.
#include "scenarios.hpp"

#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/fir.hpp"
#include "util/rng.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kOut = 0x4002'0000;

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const u32 words = 512;
  const u32 burst = params.get_u32("burst");
  const bool use_loop = params.get_str("isa") == "v2";

  platform::Soc soc;
  // A streaming identity datapath (1-tap unity FIR): one word in, one word
  // out per cycle, fully overlapped with the bus — so the measurement is
  // pure transfer cost, matching how the paper derives its 1.5
  // cycles/word ((4000 - 2485) / 1024).
  rac::FirRac rac(soc.kernel(), "identity", {i32{1} << 16}, words);
  core::Ocp& ocp = soc.add_ocp(rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = words,
                           .out_words = words});
  const core::Program prog = core::build_stream_program(
      {.in_words = words, .out_words = words, .burst = burst,
       .overlap = true, .use_loop = use_loop});
  session.install(prog, /*timed_program=*/false);
  util::Rng rng(1);
  std::vector<u32> in(words);
  for (auto& w : in) w = rng.next_u32();
  session.put_input(in);
  const u64 cycles = session.run_irq();
  obs::validate_soc_ledger(soc);
  if (session.get_output() != in) {
    result.fail("data mismatch at burst " + std::to_string(burst));
  }
  result.add_metric("prog_size", prog.size());
  result.add_metric("cycles", cycles);
  result.add_metric("cycles_per_word",
                    static_cast<double>(cycles) / (2.0 * words));
}

}  // namespace

void register_e4_transfer(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e4_transfer",
      .experiment = "E4",
      .title = "transfer efficiency: 1024 words through the OCP, burst sweep",
      .grid = {{.name = "burst",
                .values = {1, 2, 4, 8, 16, 32, 64, 128, 256}},
               {.name = "isa", .values = {"v1", "v2"}}},
      // The v2 loop degenerates when the whole block fits one burst.
      .skip =
          [](const exp::ParamMap& p) {
            return p.get_str("isa") == "v2" && 512 / p.get_u32("burst") <= 1;
          },
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
