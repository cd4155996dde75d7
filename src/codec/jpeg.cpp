#include "codec/jpeg.hpp"

#include "codec/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/reference.hpp"
#include "util/rng.hpp"

namespace ouessant::codec {

namespace {

// Standard JPEG luminance quantization table (Annex K).
constexpr std::array<i32, kBlockSize> kBaseQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

constexpr u8 kEob = 0xFF;

std::array<u8, kBlockSize> compute_zigzag() {
  std::array<u8, kBlockSize> order{};
  u32 idx = 0;
  for (u32 diag = 0; diag < 15; ++diag) {
    if (diag % 2 == 0) {
      // walking up-right
      for (i32 y = static_cast<i32>(std::min(diag, 7u)); y >= 0 &&
           static_cast<i32>(diag) - y <= 7; --y) {
        const i32 x = static_cast<i32>(diag) - y;
        if (x >= 0 && x <= 7) order[idx++] = static_cast<u8>(y * 8 + x);
      }
    } else {
      for (i32 x = static_cast<i32>(std::min(diag, 7u)); x >= 0 &&
           static_cast<i32>(diag) - x <= 7; --x) {
        const i32 y = static_cast<i32>(diag) - x;
        if (y >= 0 && y <= 7) order[idx++] = static_cast<u8>(y * 8 + x);
      }
    }
  }
  return order;
}

void put_varint(std::vector<u8>& out, i32 value) {
  // ZigZag sign folding then LEB128.
  u32 v = (static_cast<u32>(value) << 1) ^ static_cast<u32>(value >> 31);
  do {
    u8 byte = v & 0x7F;
    v >>= 7;
    if (v != 0) byte |= 0x80;
    out.push_back(byte);
  } while (v != 0);
}

i32 get_varint(const std::vector<u8>& in, std::size_t& pos) {
  u32 v = 0;
  unsigned shift = 0;
  for (;;) {
    if (pos >= in.size()) {
      throw SimError("jpeg: truncated varint at byte " + std::to_string(pos));
    }
    const u8 byte = in[pos++];
    v |= static_cast<u32>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 28) {
      throw SimError("jpeg: varint overflow at byte " + std::to_string(pos));
    }
  }
  return static_cast<i32>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

const std::array<u8, kBlockSize>& zigzag_order() {
  static const auto table = compute_zigzag();
  return table;
}

const std::array<u8, kBlockSize>& zigzag_inverse() {
  static const auto table = [] {
    std::array<u8, kBlockSize> inv{};
    const auto& fwd = zigzag_order();
    for (u32 i = 0; i < kBlockSize; ++i) inv[fwd[i]] = static_cast<u8>(i);
    return inv;
  }();
  return table;
}

std::array<i32, kBlockSize> quant_table(u32 quality) {
  if (quality < 1 || quality > 100) {
    throw ConfigError("jpeg: quality must be 1..100");
  }
  const i32 scale = quality < 50 ? 5000 / static_cast<i32>(quality)
                                 : 200 - 2 * static_cast<i32>(quality);
  std::array<i32, kBlockSize> t{};
  for (u32 i = 0; i < kBlockSize; ++i) {
    t[i] = std::clamp((kBaseQuant[i] * scale + 50) / 100, 1, 255);
  }
  return t;
}

JpegImage encode(const Raster& img, u32 quality, EntropyKind entropy) {
  if (img.width % 8 != 0 || img.height % 8 != 0 || img.width == 0) {
    throw ConfigError("jpeg: dimensions must be non-zero multiples of 8");
  }
  const auto quant = quant_table(quality);
  const auto& zz = zigzag_order();

  JpegImage out;
  out.width = img.width;
  out.height = img.height;
  out.quality = quality;
  out.entropy = entropy;
  BitWriter huff;
  i32 dc_pred = 0;

  for (u32 by = 0; by < img.height / 8; ++by) {
    for (u32 bx = 0; bx < img.width / 8; ++bx) {
      double pix[kBlockSize];
      double coef[kBlockSize];
      for (u32 y = 0; y < 8; ++y) {
        for (u32 x = 0; x < 8; ++x) {
          pix[y * 8 + x] =
              static_cast<double>(img.at(bx * 8 + x, by * 8 + y)) - 128.0;
        }
      }
      util::reference_dct8x8(pix, coef);
      // Quantize into scan order.
      std::array<i32, kBlockSize> q{};
      for (u32 i = 0; i < kBlockSize; ++i) {
        q[i] = static_cast<i32>(std::lround(coef[zz[i]] / quant[zz[i]]));
      }
      if (entropy == EntropyKind::kHuffman) {
        huff_encode_block(huff, q.data(), dc_pred);
        continue;
      }
      // Run-length + varint.
      u32 run = 0;
      for (u32 i = 0; i < kBlockSize; ++i) {
        if (q[i] == 0) {
          ++run;
          continue;
        }
        out.payload.push_back(static_cast<u8>(run));
        put_varint(out.payload, q[i]);
        run = 0;
      }
      out.payload.push_back(kEob);
    }
  }
  if (entropy == EntropyKind::kHuffman) {
    out.payload = huff.finish();
  }
  return out;
}

namespace {

using Blocks = std::vector<std::array<i32, kBlockSize>>;

/// The entropy decoder both decodes share: every block's quantized
/// coefficients in scan order, Huffman or RLE, with the decode's CPU
/// work charged to @p m. @p coded counts the coefficients the stream
/// carried (Huffman: the nonzeros; RLE: the tokens).
Blocks decode_scan(const JpegImage& img, cpu::CostMeter& m, u64& coded) {
  Blocks blocks;
  blocks.reserve(img.blocks());
  coded = 0;
  if (img.entropy == EntropyKind::kHuffman) {
    BitReader in(img.payload);
    i32 dc_pred = 0;
    for (u32 b = 0; b < img.blocks(); ++b) {
      std::array<i32, kBlockSize>& q = blocks.emplace_back();
      huff_decode_block(in, q.data(), dc_pred);
      coded += static_cast<u64>(
          std::count_if(q.begin(), q.end(), [](i32 v) { return v != 0; }));
    }
    // Serial Huffman decoding cost: the canonical decoder consumes the
    // stream bit by bit (shift + compare per bit), plus per-coefficient
    // extend work and per-block bookkeeping — notably more expensive
    // than the RLE coder, as real JPEG decoding is.
    m.alu(in.bits_consumed() * 2);
    m.load(in.bits_consumed() / 8);
    m.branch(in.bits_consumed() / 2);
    m.alu(coded * 4);
    m.store(coded);
    m.alu(img.blocks() * 24);
    return blocks;
  }
  std::size_t pos = 0;
  for (u32 b = 0; b < img.blocks(); ++b) {
    std::array<i32, kBlockSize>& q = blocks.emplace_back();
    u32 scan = 0;
    for (;;) {
      if (pos >= img.payload.size()) {
        throw SimError("jpeg: truncated stream in block " + std::to_string(b) +
                       " of " + std::to_string(img.blocks()));
      }
      const u8 run = img.payload[pos++];
      if (run == kEob) break;
      scan += run;
      if (scan >= kBlockSize) {
        throw SimError("jpeg: run past block end (block " + std::to_string(b) +
                       ", scan index " + std::to_string(scan) + ")");
      }
      q[scan++] = get_varint(img.payload, pos);
      ++coded;
    }
  }
  // Entropy decoding cost: a few ALU operations and a store per token
  // (table-free RLE/varint is cheap compared to Huffman), a load + test
  // per payload byte, a clear + bookkeeping per block.
  m.load(img.payload.size());
  m.alu(img.payload.size());
  m.branch(img.payload.size() / 2);
  m.alu(coded * 6);
  m.store(coded);
  m.alu(img.blocks() * 20);
  return blocks;
}

/// @p gpp's meter, or an unbilled one.
cpu::CostMeter meter_of(cpu::Gpp* gpp) {
  return gpp != nullptr ? gpp->meter() : cpu::CostMeter(cpu::CpuCosts{});
}

}  // namespace

std::vector<std::array<i32, kBlockSize>> decode_coefficients(
    const JpegImage& img, cpu::Gpp* gpp) {
  cpu::CostMeter m = meter_of(gpp);
  u64 coded = 0;
  Blocks blocks = decode_scan(img, m, coded);
  const auto quant = quant_table(img.quality);
  const auto& zz = zigzag_order();
  for (std::array<i32, kBlockSize>& blk : blocks) {
    std::array<i32, kBlockSize> coef;
    for (u32 i = 0; i < kBlockSize; ++i) coef[zz[i]] = blk[i] * quant[zz[i]];
    blk = coef;
  }
  // The dequantize: a multiply and two ALU operations per coded
  // coefficient.
  m.alu(coded * 2);
  m.mul(coded);
  if (gpp != nullptr) gpp->spend(m);
  return blocks;
}

std::vector<std::array<i32, kBlockSize>> decode_quantized(
    const JpegImage& img, cpu::Gpp* gpp) {
  cpu::CostMeter m = meter_of(gpp);
  u64 coded = 0;
  Blocks blocks = decode_scan(img, m, coded);
  if (gpp != nullptr) gpp->spend(m);
  return blocks;
}

Raster assemble(const std::vector<std::array<i32, kBlockSize>>& blocks,
                u32 width, u32 height) {
  Raster out;
  out.width = width;
  out.height = height;
  out.samples.assign(static_cast<std::size_t>(width) * height, 0);
  const u32 bw = width / 8;
  for (u32 b = 0; b < blocks.size(); ++b) {
    const u32 bx = (b % bw) * 8;
    const u32 by = (b / bw) * 8;
    for (u32 y = 0; y < 8; ++y) {
      for (u32 x = 0; x < 8; ++x) {
        out.samples[(by + y) * width + bx + x] =
            std::clamp(blocks[b][y * 8 + x] + 128, 0, 255);
      }
    }
  }
  return out;
}

double psnr(const Raster& a, const Raster& b) {
  if (a.width != b.width || a.height != b.height) {
    throw ConfigError("psnr: size mismatch");
  }
  double mse = 0;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const double d = static_cast<double>(a.samples[i]) - b.samples[i];
    mse += d * d;
  }
  mse /= static_cast<double>(a.samples.size());
  if (mse <= 0) return 99.0;
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

Raster test_image(u32 width, u32 height, u64 seed) {
  util::Rng rng(seed);
  Raster img;
  img.width = width;
  img.height = height;
  img.samples.resize(static_cast<std::size_t>(width) * height);
  for (u32 y = 0; y < height; ++y) {
    for (u32 x = 0; x < width; ++x) {
      double v = 110.0 + 70.0 * std::sin(0.09 * x) * std::cos(0.06 * y) +
                 25.0 * std::sin(0.4 * (x + 2.0 * y));
      // A sharp-edged bright rectangle exercises high frequencies.
      if (x > width / 3 && x < width / 2 && y > height / 4 &&
          y < height / 2) {
        v += 70.0;
      }
      v += 4.0 * (rng.uniform() - 0.5);  // sensor noise
      img.samples[y * width + x] =
          std::clamp(static_cast<i32>(std::lround(v)), 0, 255);
    }
  }
  return img;
}

}  // namespace ouessant::codec
