// Bit-exact fixed-point transform datapaths.
//
// These functions define the *numerical contract* of the accelerators: the
// RAC hardware models and the (timing-annotated) software baselines both
// call the same code, so HW and SW results are bit-identical — exactly the
// property the paper relies on when swapping a software DFT/IDCT call for
// an OCP invocation.
#pragma once

#include <array>
#include <vector>

#include "util/types.hpp"

namespace ouessant::util {

/// Fixed-point 2D 8x8 IDCT (the paper's JPEG-decoding RAC).
///
/// Input: 64 DCT coefficients (row-major), integer values as produced by a
/// JPEG dequantizer. Internally uses Q(kIdctFrac) cosines with an even/odd
/// symmetric (butterfly) 1-D pass applied to rows then columns; each pass
/// rounds back to integer. Output: 64 spatial samples.
inline constexpr unsigned kIdctFrac = 14;
void fixed_idct8x8(const i32 in[64], i32 out[64]);

/// The Q(kIdctFrac) orthonormal DCT basis table the fixed IDCT uses:
/// entry [k][n] = c(k) * cos((2n+1) k pi / 16). Exposed so other
/// implementations of the same datapath (the L3 assembly kernel, RTL)
/// can share it bit-for-bit.
const std::array<std::array<i32, 8>, 8>& idct_basis_q14();

/// Fixed-point iterative radix-2 DIT FFT over Q(kFftFrac) samples.
///
/// re/im are Q(kFftFrac) fixed-point values in i32. Every stage scales by
/// 1/2 (arithmetic shift with round-to-nearest) so the datapath cannot
/// overflow; the output therefore equals DFT(x) / N in Q(kFftFrac).
/// Size must be a power of two. This is the numerical behaviour of the
/// Spiral-style iterative core the paper uses as its DFT RAC.
inline constexpr unsigned kFftFrac = 16;
void fixed_fft(std::vector<i32>& re, std::vector<i32>& im);

/// Twiddle factor table (Q(kFftFrac)) for an @p n-point FFT:
/// entry k holds (cos, -sin) of 2*pi*k/n, k in [0, n/2).
struct TwiddleTable {
  std::vector<i32> cos_q;
  std::vector<i32> msin_q;
};
TwiddleTable make_twiddles(std::size_t n);

}  // namespace ouessant::util
