// E9 (application figure) — the motivating workload end to end: JPEG-style
// decode throughput across image sizes and qualities, software vs OCP
// sequential vs OCP software-pipelined with the entropy stage.
//
// The per-block numbers connect directly to Table I: the IDCT row's
// 1.67x gain is per *isolated* invocation under Linux; at application
// level (baremetal back-to-back blocks, entropy decode overlapped) the
// integration wins by an order of magnitude.
#include "scenarios.hpp"

#include "codec/jpeg.hpp"
#include "cpu/sw_kernels.hpp"
#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "util/fixed.hpp"
#include "util/transforms.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kProg = 0x4000'0000;
constexpr Addr kCoef = 0x4001'0000;
constexpr Addr kPix = 0x4002'0000;

struct Times {
  u64 sw = 0;
  u64 hw_seq = 0;
  u64 hw_pipe = 0;
};

Times run_decode(u32 dim, u32 quality, codec::EntropyKind entropy) {
  const auto img = codec::test_image(dim, dim);
  const auto jpg = codec::encode(img, quality, entropy);
  Times t;

  // Software decode.
  {
    platform::Soc soc;
    const Cycle t0 = soc.kernel().now();
    auto blocks = codec::decode_coefficients(jpg, &soc.cpu());
    for (auto& blk : blocks) {
      std::vector<u32> coef(64);
      for (u32 i = 0; i < 64; ++i) coef[i] = util::to_word(blk[i]);
      soc.sram().load(kCoef, coef);
      cpu::sw::sw_idct8x8(soc.cpu(), soc.sram(), kCoef, kPix);
    }
    t.sw = soc.kernel().now() - t0;
    obs::validate_soc_ledger(soc);
  }

  // OCP decode, sequential and pipelined.
  for (const bool pipelined : {false, true}) {
    platform::Soc soc;
    rac::IdctRac idct(soc.kernel(), "idct");
    core::Ocp& ocp = soc.add_ocp(idct);
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = kProg, .in_base = kCoef,
                             .out_base = kPix, .in_words = 64,
                             .out_words = 64});
    session.install(core::build_stream_program(
                        {.in_words = 64, .out_words = 64, .burst = 64}),
                    /*timed_program=*/false);
    session.driver().enable_irq(true);

    const Cycle t0 = soc.kernel().now();
    const auto blocks = codec::decode_coefficients(jpg);  // functional
    // Prorated entropy cost per block (charged by the CPU).
    const u64 per_block = [&] {
      platform::Soc probe;
      const Cycle p0 = probe.kernel().now();
      (void)codec::decode_coefficients(jpg, &probe.cpu());
      return (probe.kernel().now() - p0) / blocks.size();
    }();

    if (!pipelined) {
      for (const auto& blk : blocks) {
        soc.cpu().spend(per_block);  // entropy decode this block
        std::vector<u32> coef(64);
        for (u32 i = 0; i < 64; ++i) coef[i] = util::to_word(blk[i]);
        session.put_input(coef);
        session.run_irq();
      }
      t.hw_seq = soc.kernel().now() - t0;
    } else {
      soc.cpu().spend(per_block);  // prologue: block 0
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        std::vector<u32> coef(64);
        for (u32 i = 0; i < 64; ++i) coef[i] = util::to_word(blocks[b][i]);
        session.put_input(coef);
        session.start_async();
        if (b + 1 < blocks.size()) soc.cpu().spend(per_block);
        session.driver().wait_done_irq();
      }
      t.hw_pipe = soc.kernel().now() - t0;
    }
    obs::validate_soc_ledger(soc);
  }
  return t;
}

void run_point(const exp::ParamMap& params, const exp::RunContext&,
               exp::Result& result) {
  const u32 dim = params.get_u32("dim");
  const u32 quality = params.get_u32("quality");
  const auto entropy = params.get_str("entropy") == "rle"
                           ? codec::EntropyKind::kRle
                           : codec::EntropyKind::kHuffman;
  const Times t = run_decode(dim, quality, entropy);
  result.add_metric("sw", t.sw);
  result.add_metric("hw_seq", t.hw_seq);
  result.add_metric("hw_pipe", t.hw_pipe);
  result.add_metric("sw_over_seq", static_cast<double>(t.sw) / t.hw_seq);
  result.add_metric("sw_over_pipe", static_cast<double>(t.sw) / t.hw_pipe);
}

}  // namespace

void register_e9_jpeg(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "e9_jpeg",
      .experiment = "E9",
      .title = "JPEG-style decode throughput (cycles; 50 MHz SoC)",
      .grid = {{.name = "dim", .values = {32, 64, 96}},
               {.name = "quality", .values = {25, 75}},
               {.name = "entropy", .values = {"rle", "huffman"}}},
      .run = run_point,
  });
}

}  // namespace ouessant::scenarios
