// JPEG dequantization RAC — the middle stage of the chained decode
// pipeline (docs/chaining.md): Huffman decode (software) -> Dequant RAC
// -> IDCT RAC per 8x8 block.
//
// Interface: 64 words of i32 quantized coefficients in SCAN (zigzag)
// order in, 64 words of i32 dequantized coefficients in RASTER order
// out — the reorder is folded into the multiply stage, so the
// downstream IDCT consumes the block directly. The datapath is the
// bit-exact integer multiply of codec::decode_coefficients:
// out[zigzag[i]] = in[i] * quant[zigzag[i]].
//
// The quantization and zigzag tables arrive via config (src/rac does
// not depend on src/codec); the service layer feeds it
// codec::quant_table(quality) and codec::zigzag_order().
#pragma once

#include <array>

#include "rac/block_rac.hpp"

namespace ouessant::rac {

struct DequantConfig {
  std::array<i32, 64> quant{};  ///< quantization table, raster order
  std::array<u8, 64> zigzag{};  ///< scan position -> raster index
  /// Pipeline latency: an 8-multiplier row processes the block in 8
  /// passes (one row of the 8x8 per cycle).
  u32 compute_cycles = 8;
};

class DequantRac : public BlockRac {
 public:
  static constexpr u32 kBlockWords = 64;

  DequantRac(sim::Kernel& kernel, std::string name, DequantConfig cfg);

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 protected:
  [[nodiscard]] std::vector<u64> compute(const std::vector<u64>& in) override;

 private:
  DequantConfig cfg_;
};

}  // namespace ouessant::rac
