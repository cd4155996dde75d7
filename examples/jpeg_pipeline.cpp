// Full JPEG-style decoder pipeline on the simulated SoC — the paper's
// motivating scenario taken end to end.
//
// The compressed stream is entropy-decoded and dequantized on the GPP
// (always a software job), while the 8x8 inverse DCTs run either:
//   (a) entirely in software,
//   (b) on the OCP, sequentially (decode block, then IDCT it),
//   (c) on the OCP, software-pipelined: the CPU entropy-decodes block k+1
//       while the coprocessor transforms block k — the "GPP can process
//       other tasks" property doing real work.
// Reports cycles, per-block costs, speedups and the decoded PSNR.
#include <cstdio>

#include "codec/jpeg.hpp"
#include "cpu/sw_kernels.hpp"
#include "drv/session.hpp"
#include "obs/collect.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "util/fixed.hpp"

using namespace ouessant;

namespace {

constexpr u32 kDim = 96;
constexpr Addr kProg = 0x4000'0000;
constexpr Addr kCoef = 0x4001'0000;
constexpr Addr kPix = 0x4002'0000;

/// Entropy-decode cost for ONE block, prorated from the whole stream (the
/// codec charges per token; here we decode everything up front and charge
/// per block as the pipeline consumes it).
struct Decoded {
  std::vector<std::array<i32, 64>> blocks;
  u64 entropy_cycles_total = 0;
};

Decoded entropy_stage(platform::Soc& soc, const codec::JpegImage& jpg) {
  const Cycle t0 = soc.kernel().now();
  Decoded d;
  d.blocks = codec::decode_coefficients(jpg, &soc.cpu());
  d.entropy_cycles_total = soc.kernel().now() - t0;
  return d;
}

}  // namespace

int main() {
  const auto img = codec::test_image(kDim, kDim);
  const auto jpg = codec::encode(img, 75);
  std::printf("JPEG pipeline: %ux%u, quality 75, %zu bytes (%.2f bpp), %u "
              "blocks\n\n",
              kDim, kDim, jpg.payload.size(), jpg.bits_per_pixel(),
              jpg.blocks());

  codec::Raster decoded_sw;
  codec::Raster decoded_hw;
  u64 sw_total = 0;
  u64 hw_seq_total = 0;
  u64 hw_pipe_total = 0;

  // ---------------- (a) all software -----------------------------------
  {
    platform::Soc soc;
    const Cycle t0 = soc.kernel().now();
    const Decoded d = entropy_stage(soc, jpg);
    std::vector<std::array<i32, 64>> pix(d.blocks.size());
    for (std::size_t b = 0; b < d.blocks.size(); ++b) {
      std::vector<u32> coef(64);
      for (u32 i = 0; i < 64; ++i) coef[i] = util::to_word(d.blocks[b][i]);
      soc.sram().load(kCoef, coef);
      cpu::sw::sw_idct8x8(soc.cpu(), soc.sram(), kCoef, kPix);
      const auto out = soc.sram().dump(kPix, 64);
      for (u32 i = 0; i < 64; ++i) pix[b][i] = util::from_word(out[i]);
    }
    sw_total = soc.kernel().now() - t0;
    decoded_sw = codec::assemble(pix, kDim, kDim);
  }

  // ---------------- (b) OCP, sequential --------------------------------
  {
    platform::Soc soc;
    rac::IdctRac idct(soc.kernel(), "idct");
    core::Ocp& ocp = soc.add_ocp(idct);
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = kProg, .in_base = kCoef,
                             .out_base = kPix, .in_words = 64,
                             .out_words = 64});
    session.install(core::build_stream_program(
        {.in_words = 64, .out_words = 64, .burst = 64}));
    const Cycle t0 = soc.kernel().now();
    const Decoded d = entropy_stage(soc, jpg);
    std::vector<std::array<i32, 64>> pix(d.blocks.size());
    for (std::size_t b = 0; b < d.blocks.size(); ++b) {
      std::vector<u32> coef(64);
      for (u32 i = 0; i < 64; ++i) coef[i] = util::to_word(d.blocks[b][i]);
      session.put_input(coef);
      session.run_irq();
      const auto out = session.get_output();
      for (u32 i = 0; i < 64; ++i) pix[b][i] = util::from_word(out[i]);
    }
    hw_seq_total = soc.kernel().now() - t0;
    decoded_hw = codec::assemble(pix, kDim, kDim);
  }

  // ---------------- (c) OCP, software-pipelined ------------------------
  {
    platform::Soc soc;
    rac::IdctRac idct(soc.kernel(), "idct");
    core::Ocp& ocp = soc.add_ocp(idct);
    drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                            {.prog_base = kProg, .in_base = kCoef,
                             .out_base = kPix, .in_words = 64,
                             .out_words = 64});
    session.install(core::build_stream_program(
        {.in_words = 64, .out_words = 64, .burst = 64}));
    session.driver().enable_irq(true);

    const Cycle t0 = soc.kernel().now();
    // Pre-decode the stream once to know token boundaries, then charge
    // per-block entropy time *inside* the loop, overlapped with the OCP.
    const auto blocks = codec::decode_coefficients(jpg);  // functional only
    const u64 per_block_entropy = [&] {
      platform::Soc probe;
      const Decoded d = entropy_stage(probe, jpg);
      return d.entropy_cycles_total / blocks.size();
    }();

    std::vector<std::array<i32, 64>> pix(blocks.size());
    // Prologue: decode block 0 (charge its entropy time).
    soc.cpu().spend(per_block_entropy);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      std::vector<u32> coef(64);
      for (u32 i = 0; i < 64; ++i) coef[i] = util::to_word(blocks[b][i]);
      session.put_input(coef);
      session.start_async();
      // While the OCP transforms block b, the CPU entropy-decodes b+1.
      if (b + 1 < blocks.size()) soc.cpu().spend(per_block_entropy);
      session.driver().wait_done_irq();
      const auto out = session.get_output();
      for (u32 i = 0; i < 64; ++i) pix[b][i] = util::from_word(out[i]);
    }
    hw_pipe_total = soc.kernel().now() - t0;

    const Cycle now = soc.kernel().now();
    std::printf("pipelined run, %llu cycles:\n%s\n",
                static_cast<unsigned long long>(now),
                obs::validate_soc_ledger(soc).render(now).c_str());
  }

  const u32 n = jpg.blocks();
  std::printf("%-38s %12s %12s\n", "decoder", "cycles", "cyc/block");
  std::printf("%-38s %12llu %12llu\n", "(a) software IDCT",
              static_cast<unsigned long long>(sw_total),
              static_cast<unsigned long long>(sw_total / n));
  std::printf("%-38s %12llu %12llu\n", "(b) OCP IDCT, sequential",
              static_cast<unsigned long long>(hw_seq_total),
              static_cast<unsigned long long>(hw_seq_total / n));
  std::printf("%-38s %12llu %12llu\n", "(c) OCP IDCT, pipelined with entropy",
              static_cast<unsigned long long>(hw_pipe_total),
              static_cast<unsigned long long>(hw_pipe_total / n));
  std::printf("\nspeedup (a)/(b): %.2fx   (a)/(c): %.2fx\n",
              static_cast<double>(sw_total) / hw_seq_total,
              static_cast<double>(sw_total) / hw_pipe_total);
  std::printf("PSNR: software %.2f dB, OCP %.2f dB (bit-identical: %s)\n",
              codec::psnr(img, decoded_sw), codec::psnr(img, decoded_hw),
              decoded_sw.samples == decoded_hw.samples ? "yes" : "NO");
  return decoded_sw.samples == decoded_hw.samples ? 0 : 1;
}
