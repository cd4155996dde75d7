#include "cpu/sw_kernels.hpp"

#include <complex>
#include <vector>

#include "util/fixed.hpp"
#include "util/reference.hpp"
#include "util/transforms.hpp"

namespace ouessant::cpu::sw {

namespace {

/// Charge the cost of one even/odd 1-D 8-point IDCT pass (see
/// util::transforms.cpp: 32 muls accumulating into 64-bit sums, 24
/// accumulate adds, 8 combine adds, 8 round-and-shift, 8 loads, 8 stores,
/// and loop/index bookkeeping).
void charge_idct_pass(CostMeter& m) {
  m.mul(32);
  m.alu(24 * 2);  // 64-bit accumulate adds on a 32-bit core
  m.alu(8 * 2);   // combine even +/- odd
  m.alu(8 * 2);   // rounding add + arithmetic shift
  m.load(8);
  m.store(8);
  m.alu(16);      // index arithmetic
  m.branch(4);    // loop control
}

/// Charge one radix-2 butterfly in software-emulated double precision:
/// complex multiply (4 fmul + 2 fadd), two complex add/sub (4 fadd),
/// plus double loads/stores (2 words each on a 32-bit bus) and loop
/// bookkeeping.
void charge_fft_butterfly_softfloat(CostMeter& m) {
  m.fmul(4);
  m.fadd(6);
  m.load(6 * 2);   // u, v, twiddle: 3 complex = 6 doubles
  m.store(4 * 2);  // two complex results
  m.alu(4);
  m.branch(2);
}

u64 fft_stage_count(u32 points) { return log2_exact(points); }
u64 fft_butterfly_count(u32 points) {
  return static_cast<u64>(points) / 2 * fft_stage_count(points);
}

void charge_bit_reverse(CostMeter& m, u32 points, u32 words_per_point) {
  // Swap loop: index reversal arithmetic + conditional swap.
  m.alu(points * 6);
  m.branch(points);
  m.load(points / 2 * words_per_point);
  m.store(points / 2 * words_per_point);
}

}  // namespace

u64 cost_idct8x8(const CpuCosts& costs) {
  CostMeter m(costs);
  m.call(1);
  for (int pass = 0; pass < 16; ++pass) charge_idct_pass(m);
  // Column gather/scatter of the transposed access pattern.
  m.alu(64);
  return m.cycles();
}

u64 sw_idct8x8(Gpp& gpp, mem::Sram& mem, Addr in, Addr out) {
  i32 coef[64];
  i32 pix[64];
  for (u32 i = 0; i < 64; ++i) {
    coef[i] = util::from_word(mem.peek(in + i * 4));
  }
  util::fixed_idct8x8(coef, pix);
  for (u32 i = 0; i < 64; ++i) {
    mem.poke(out + i * 4, util::to_word(pix[i]));
  }
  const u64 cycles = cost_idct8x8(gpp.costs());
  gpp.spend(cycles);
  return cycles;
}

u64 cost_dft_softfloat(const CpuCosts& costs, u32 points) {
  CostMeter m(costs);
  m.call(1);
  charge_bit_reverse(m, points, 2 * 2);  // doubles: 2 words per half
  const u64 bfls = fft_butterfly_count(points);
  for (u64 i = 0; i < bfls; ++i) charge_fft_butterfly_softfloat(m);
  // Q-format -> double conversion on load and back on store (soft-float
  // int/double conversion, ~1 fadd-class operation each way).
  m.fadd(points * 2 * 2);
  m.load(points * 2);
  m.store(points * 2);
  return m.cycles();
}

u64 sw_dft_softfloat(Gpp& gpp, mem::Sram& mem, Addr in, Addr out,
                     u32 points) {
  if (!is_pow2(points)) {
    throw SimError("sw_dft_softfloat: points must be a power of two");
  }
  const util::Q q(util::kFftFrac);
  std::vector<util::cplx> x(points);
  for (u32 i = 0; i < points; ++i) {
    const double re = q.to_double(util::from_word(mem.peek(in + i * 8)));
    const double im = q.to_double(util::from_word(mem.peek(in + i * 8 + 4)));
    x[i] = {re, im};
  }
  x = util::reference_fft(std::move(x));
  const double scale = 1.0 / static_cast<double>(points);
  for (u32 i = 0; i < points; ++i) {
    mem.poke(out + i * 8, util::to_word(q.from_double(x[i].real() * scale)));
    mem.poke(out + i * 8 + 4,
             util::to_word(q.from_double(x[i].imag() * scale)));
  }
  const u64 cycles = cost_dft_softfloat(gpp.costs(), points);
  gpp.spend(cycles);
  return cycles;
}

u64 sw_copy_words(Gpp& gpp, mem::Sram& mem, Addr dst, Addr src, u32 words) {
  CostMeter m(gpp.costs());
  m.call(1);
  for (u32 i = 0; i < words; ++i) {
    mem.poke(dst + i * 4, mem.peek(src + i * 4));
    m.load(1);
    m.store(1);
    m.alu(1);
    m.branch(1);
  }
  const u64 cycles = m.cycles();
  gpp.spend(cycles);
  return cycles;
}

}  // namespace ouessant::cpu::sw
