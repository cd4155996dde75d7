// CHAIN — accelerator-to-accelerator chaining (docs/chaining.md).
//
// Four scenarios measure what the p2p ChainLink buys over the
// store-and-forward SRAM bounce, at equal payload and with the same two
// RACs (dequantize -> IDCT, the chained JPEG decode pair):
//   chain_traffic    the headline A/B: run the identical block batch
//                    through both modes, assert the payloads are
//                    bit-identical and that linked mode is both faster
//                    and moves strictly fewer bus beats (the
//                    intermediate blocks never touch SRAM).
//   chain_link_cost  the link's cycles_per_word swept in linked mode —
//                    the cost knob's effect on end-to-end cycles, plus
//                    the busy == words * cycles_per_word identity.
//   chain_service    the dispatcher path: an OffloadService with one
//                    chained worker serving JobKind::kJpegChain under
//                    open-loop load, both modes gridded, every
//                    completion verified in-service.
//   serve_jpeg       the end-to-end pipeline: Huffman decode (software,
//                    charged to the GPP) -> Dequant RAC -> IDCT RAC per
//                    8x8 block, assembled and proven bit-exact against
//                    the all-software decode of the same bitstream.
//
// Every run closes its CycleLedger including the chain track
// (obs::collect_chain), so the linked-vs-bounced decomposition is
// proven, not assumed.
#include "scenarios.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <string>
#include <vector>

#include "codec/jpeg.hpp"
#include "drv/chain.hpp"
#include "obs/collect.hpp"
#include "platform/soc.hpp"
#include "rac/dequant.hpp"
#include "rac/idct.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"
#include "util/transforms.hpp"

namespace ouessant::scenarios {
namespace {

constexpr Addr kHeadProg = 0x4000'0000;
constexpr Addr kTailProg = 0x4000'2000;
constexpr Addr kIn = 0x4001'0000;
constexpr Addr kBounce = 0x4002'0000;
constexpr Addr kOut = 0x4003'0000;

/// Quantized scan-order blocks with JPEG-like statistics: a large DC
/// term, mostly-zero AC tail — the payload shape the chain is built for.
std::vector<std::array<i32, 64>> synth_blocks(u32 count, u64 seed) {
  util::Rng rng(seed);
  std::vector<std::array<i32, 64>> blocks(count);
  for (auto& blk : blocks) {
    blk[0] = static_cast<i32>(rng.range(-100, 100));
    for (u32 i = 1; i < 64; ++i) {
      blk[i] = rng.chance(0.75) ? 0 : static_cast<i32>(rng.range(-30, 30));
    }
  }
  return blocks;
}

/// The service's software model of the dequantize->IDCT pair
/// (svc::reference_output) for one scan-order block.
std::array<i32, 64> reference_block(const std::array<i32, 64>& qblk) {
  const std::vector<u32> pix = svc::reference_output(
      svc::JobKind::kJpegChain, {qblk.begin(), qblk.end()});
  std::array<i32, 64> out;
  std::transform(pix.begin(), pix.end(), out.begin(), util::from_word);
  return out;
}

using Blocks = std::vector<std::array<i32, 64>>;

struct ChainRun {
  u64 cycles = 0;      ///< kernel cycles from the source call to the end
  u64 bus_beats = 0;   ///< total data beats over the system bus
  u64 link_words = 0;  ///< words the ChainLink moved (0 in SF mode)
  u64 link_busy = 0;   ///< link-occupied cycles
  Blocks out;          ///< pixel blocks, raster order
};

/// Push the blocks @p source yields through a fresh dequant->IDCT chain
/// stack (the service's JPEG quality) in @p mode, @p batch blocks per
/// launch (the block count must divide evenly), and close the ledger
/// including the chain track. @p source runs on the stack's CPU inside
/// the timed span, so a software entropy decode is charged to the run.
ChainRun run_chain(drv::ChainMode mode, u32 cycles_per_word, u32 batch,
                   const std::function<Blocks(cpu::Gpp&)>& source) {
  platform::Soc soc;
  rac::DequantConfig dqc;
  dqc.quant = codec::quant_table(svc::jpeg_chain_quality());
  dqc.zigzag = codec::zigzag_order();
  rac::DequantRac dq(soc.kernel(), "chain_dq", dqc);
  rac::IdctRac idct(soc.kernel(), "chain_idct");
  core::Ocp& head = soc.add_ocp(dq);
  core::Ocp& tail = soc.add_ocp(idct);
  fifo::ChainLink link(soc.kernel(), "chain_link",
                       {.cycles_per_word = cycles_per_word});
  drv::ChainSession session(soc.cpu(), soc.sram(), head, tail, link,
                            {.head_prog_base = kHeadProg,
                             .tail_prog_base = kTailProg,
                             .in_base = kIn,
                             .bounce_base = kBounce,
                             .out_base = kOut,
                             .block_words = 64,
                             .max_batch = batch},
                            mode);
  session.install(batch);

  ChainRun r;
  const Cycle t0 = soc.kernel().now();
  const Blocks blocks = source(soc.cpu());
  if (blocks.size() % batch != 0) {
    throw ConfigError("run_chain: blocks not a multiple of batch");
  }
  for (std::size_t b = 0; b < blocks.size(); b += batch) {
    std::vector<u32> in;
    in.reserve(static_cast<std::size_t>(batch) * 64);
    for (u32 k = 0; k < batch; ++k) {
      for (i32 v : blocks[b + k]) in.push_back(util::to_word(v));
    }
    session.put_input(in);
    session.run_irq();
    const auto out = session.get_output(batch * 64);
    for (u32 k = 0; k < batch; ++k) {
      std::array<i32, 64>& blk = r.out.emplace_back();
      for (u32 i = 0; i < 64; ++i) {
        blk[i] = util::from_word(out[static_cast<std::size_t>(k) * 64 + i]);
      }
    }
  }
  r.cycles = soc.kernel().now() - t0;
  r.bus_beats = soc.bus().master_totals().beats;
  r.link_words = link.words_moved();
  r.link_busy = link.busy_cycles();
  const fifo::ChainLink* links[] = {&link};
  obs::validate_soc_ledger(soc, links);
  return r;
}

/// A run_chain source that hands over @p blocks as they are.
std::function<Blocks(cpu::Gpp&)> given(const Blocks& blocks) {
  return [&blocks](cpu::Gpp&) { return blocks; };
}

// ---------------------------------------------------------------------
// chain_traffic

void run_traffic(const exp::ParamMap& params, const exp::RunContext& ctx,
                 exp::Result& result) {
  const u32 batch = params.get_u32("batch");
  const auto blocks = synth_blocks(16, ctx.seed);
  Blocks ref(blocks.size());
  std::transform(blocks.begin(), blocks.end(), ref.begin(), reference_block);

  const ChainRun linked =
      run_chain(drv::ChainMode::kLinked, 1, batch, given(blocks));
  const ChainRun sf =
      run_chain(drv::ChainMode::kStoreForward, 1, batch, given(blocks));
  result.add_metric("linked_cycles", linked.cycles);
  result.add_metric("sf_cycles", sf.cycles);
  result.add_metric("linked_beats", linked.bus_beats);
  result.add_metric("sf_beats", sf.bus_beats);
  result.add_metric("link_words", linked.link_words);
  result.add_metric("speedup", static_cast<double>(sf.cycles) /
                                   static_cast<double>(linked.cycles));
  result.add_metric("beats_saved", sf.bus_beats - linked.bus_beats);
  if (linked.out != ref) {
    result.fail("linked payload != software model");
  } else if (sf.out != ref) {
    result.fail("store-and-forward payload != software model");
  } else if (linked.cycles >= sf.cycles) {
    result.fail("linked mode not faster: " + std::to_string(linked.cycles) +
                " >= " + std::to_string(sf.cycles));
  } else if (linked.bus_beats >= sf.bus_beats) {
    result.fail("linked mode saved no bus beats: " +
                std::to_string(linked.bus_beats) +
                " >= " + std::to_string(sf.bus_beats));
  } else if (linked.link_words !=
             blocks.size() * 64) {  // every intermediate word via the link
    result.fail("link moved " + std::to_string(linked.link_words) +
                " words, expected " + std::to_string(blocks.size() * 64));
  }
}

// ---------------------------------------------------------------------
// chain_link_cost

void run_link_cost(const exp::ParamMap& params, const exp::RunContext& ctx,
                   exp::Result& result) {
  const u32 cpw = params.get_u32("cpw");
  const auto blocks = synth_blocks(16, ctx.seed);
  const ChainRun r =
      run_chain(drv::ChainMode::kLinked, cpw, /*batch=*/8, given(blocks));
  result.add_metric("cycles", r.cycles);
  result.add_metric("link_words", r.link_words);
  result.add_metric("link_busy", r.link_busy);
  if (r.link_busy != r.link_words * cpw) {
    result.fail("link busy " + std::to_string(r.link_busy) +
                " != words * cpw " + std::to_string(r.link_words * cpw));
  }
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (r.out[b] != reference_block(blocks[b])) {
      result.fail("payload != software model at block " + std::to_string(b));
      return;
    }
  }
}

// ---------------------------------------------------------------------
// chain_service

drv::ChainMode mode_from(const std::string& s) {
  return s == "store_forward" ? drv::ChainMode::kStoreForward
                              : drv::ChainMode::kLinked;
}

void run_service(const exp::ParamMap& params, const exp::RunContext& ctx,
                 exp::Result& result) {
  const std::string mode_str = params.get_str("mode");
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  cfg.chains = {svc::ChainSpec{.max_batch = 4,
                               .mode = mode_from(mode_str),
                               .link_cycles_per_word = 1}};
  cfg.queue_depth = 128;
  svc::WorkloadConfig wl;
  wl.jobs = 64;
  wl.mean_gap = 800.0;
  wl.kinds = {svc::JobKind::kJpegChain};
  svc::OffloadService service(std::move(cfg));
  const svc::ServiceReport rep = serve_point(service, wl, ctx, result);
  if (mode_from(mode_str) == drv::ChainMode::kLinked &&
      rep.link_words != rep.completed * 64) {
    result.fail("link moved " + std::to_string(rep.link_words) +
                " words for " + std::to_string(rep.completed) + " jobs");
  }
}

// ---------------------------------------------------------------------
// serve_jpeg

void run_serve_jpeg(const exp::ParamMap& params, const exp::RunContext& ctx,
                    exp::Result& result) {
  const u32 dim = params.get_u32("dim");
  const auto mode = mode_from(params.get_str("mode"));
  const u32 quality = svc::jpeg_chain_quality();
  const auto img = codec::test_image(dim, dim, ctx.seed);
  const auto jpg = codec::encode(img, quality, codec::EntropyKind::kHuffman);

  // The hardware pipeline: software Huffman decode (charged to the GPP)
  // feeding the dequant->IDCT chain, 8 blocks per launch.
  const ChainRun r =
      run_chain(mode, /*cycles_per_word=*/1, /*batch=*/8,
                [&jpg](cpu::Gpp& gpp) {
                  return codec::decode_quantized(jpg, &gpp);
                });

  // All-software decode of the same bitstream: the bit-exactness oracle.
  const auto coef_blocks = codec::decode_coefficients(jpg);
  Blocks sw_blocks(coef_blocks.size());
  for (std::size_t b = 0; b < coef_blocks.size(); ++b) {
    i32 pix[64];
    util::fixed_idct8x8(coef_blocks[b].data(), pix);
    for (u32 i = 0; i < 64; ++i) sw_blocks[b][i] = pix[i];
  }
  const auto hw_img = codec::assemble(r.out, dim, dim);
  const auto sw_img = codec::assemble(sw_blocks, dim, dim);

  result.add_metric("blocks", static_cast<u64>(r.out.size()));
  result.add_metric("cycles", r.cycles);
  result.add_metric("cycles_per_block",
                    static_cast<double>(r.cycles) /
                        static_cast<double>(r.out.size()));
  result.add_metric("bus_beats", r.bus_beats);
  result.add_metric("link_words", r.link_words);
  result.add_metric("psnr_db", codec::psnr(img, hw_img));
  result.add_metric("bit_exact",
                    hw_img.samples == sw_img.samples ? "yes" : "NO");
  if (hw_img.samples != sw_img.samples) {
    result.fail("chained decode != software decode of the same bitstream");
  }
}

}  // namespace

void register_chain(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "chain_traffic",
      .experiment = "CHAIN",
      .title = "p2p link vs SRAM bounce, same payload: cycles + bus beats",
      .grid = {{.name = "batch", .values = {1, 4, 8}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_traffic,
  });
  r.add(exp::ScenarioSpec{
      .name = "chain_link_cost",
      .experiment = "CHAIN",
      .title = "link cycles_per_word swept in linked mode",
      .grid = {{.name = "cpw", .values = {1, 2, 4, 8}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_link_cost,
  });
  r.add(exp::ScenarioSpec{
      .name = "chain_service",
      .experiment = "CHAIN",
      .title = "one chained worker serving kJpegChain under open-loop load",
      .grid = {{.name = "mode", .values = {"linked", "store_forward"}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_service,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_jpeg",
      .experiment = "CHAIN",
      .title = "Huffman (sw) -> dequant RAC -> IDCT RAC, bit-exact decode",
      .grid = {{.name = "dim", .values = {32, 64}},
               {.name = "mode", .values = {"linked", "store_forward"}}},
      .default_seed = 1,
      .run = run_serve_jpeg,
  });
}

}  // namespace ouessant::scenarios
