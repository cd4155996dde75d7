// E6 — ablation for the paper's announced ISA evolution ("The instruction
// set is also being worked on, to provide higher flexibility"): the v2
// LOOP instruction with post-increment streaming mode versus the v1
// unrolled transfer ladders of Fig. 4 (scenario e6_isa), and exec
// (blocking) vs execs (overlapped) scheduling (scenario e6_overlap).
//
// Reported per configuration: microcode size (words of program memory),
// instruction fetch traffic (extra bus reads), and end-to-end cycles.
#include "scenarios.hpp"

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

struct Measurement {
  u64 program_words;
  u64 instructions_executed;
  u64 cycles;
  bool data_ok;
};

Measurement measure(u32 words, u32 burst, bool use_loop, bool overlap) {
  platform::Soc soc;
  rac::PassthroughRac rac(soc.kernel(), "pass", words, 32);
  core::Ocp& ocp = soc.add_ocp(
      rac, use_loop ? core::IsaLevel::kV2 : core::IsaLevel::kV1);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProg, .in_base = kIn,
                           .out_base = kOut, .in_words = words,
                           .out_words = words});
  const core::Program prog = core::build_stream_program(
      {.in_words = words, .out_words = words, .burst = burst,
       .overlap = overlap, .use_loop = use_loop});
  session.install(prog, /*timed_program=*/false);
  util::Rng rng(2);
  std::vector<u32> in(words);
  for (auto& w : in) w = rng.next_u32();
  session.put_input(in);
  const u64 cycles = session.run_irq();
  obs::validate_soc_ledger(soc);
  return {.program_words = prog.size(),
          .instructions_executed = ocp.controller().stats().instructions,
          .cycles = cycles,
          .data_ok = session.get_output() == in};
}

void run_isa_point(const exp::ParamMap& params, const exp::RunContext&,
                   exp::Result& result) {
  const u32 words = params.get_u32("words");
  const u32 burst = params.get_u32("burst");
  const bool use_loop = params.get_str("isa") == "v2";
  const Measurement m = measure(words, burst, use_loop, /*overlap=*/true);
  if (!m.data_ok) result.fail("data mismatch");
  result.add_metric("prog_size", m.program_words);
  result.add_metric("instrs_run", m.instructions_executed);
  result.add_metric("cycles", m.cycles);
}

void run_overlap_point(const exp::ParamMap& params, const exp::RunContext&,
                       exp::Result& result) {
  const bool overlapped = params.get_str("mode") == "execs";
  const Measurement m = measure(512, 64, /*use_loop=*/false, overlapped);
  if (!m.data_ok) result.fail("data mismatch");
  result.add_metric("cycles", m.cycles);
}

}  // namespace

void register_e6_isa_ext(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e6_isa",
      .experiment = "E6",
      .title = "ISA ablation: v1 unrolled vs v2 loop microcode",
      .grid = {{.name = "words", .values = {128, 512, 2048}},
               {.name = "burst", .values = {16, 64}},
               {.name = "isa", .values = {"v1", "v2"}}},
      .run = run_isa_point,
  });
  r.add(exp::ScenarioSpec{
      .name = "e6_overlap",
      .experiment = "E6",
      .title = "exec (blocking) vs execs (overlapped), 512 words @ DMA64, v1",
      .grid = {{.name = "mode", .values = {"exec", "execs"}}},
      .run = run_overlap_point,
  });
}

}  // namespace ouessant::scenarios
