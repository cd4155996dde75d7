// Unit tests for util: fixed point, PRNG, golden transforms, and the
// bit-exact fixed-point datapaths.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "util/fixed.hpp"
#include "util/parse.hpp"
#include "util/reference.hpp"
#include "util/rng.hpp"
#include "util/transforms.hpp"
#include "util/types.hpp"

namespace ouessant {
namespace {

// ---------------------------------------------------------------- types --

TEST(Types, WordsForBits) {
  EXPECT_EQ(words_for_bits(0), 0u);
  EXPECT_EQ(words_for_bits(1), 1u);
  EXPECT_EQ(words_for_bits(32), 1u);
  EXPECT_EQ(words_for_bits(33), 2u);
  EXPECT_EQ(words_for_bits(96), 3u);
}

TEST(Types, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Types, Log2Exact) {
  EXPECT_EQ(log2_exact(1), 0u);
  EXPECT_EQ(log2_exact(2), 1u);
  EXPECT_EQ(log2_exact(256), 8u);
}

TEST(Types, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(4), 2u);
  EXPECT_EQ(ceil_log2(5), 3u);
  EXPECT_EQ(ceil_log2(1023), 10u);
}

TEST(Types, RoundUp) {
  EXPECT_EQ(round_up(0, 4), 0u);
  EXPECT_EQ(round_up(1, 4), 4u);
  EXPECT_EQ(round_up(8, 4), 8u);
  EXPECT_EQ(round_up(9, 4), 12u);
}

// ---------------------------------------------------------------- fixed --

TEST(Fixed, QRoundTrip) {
  const util::Q q(16);
  for (double v : {0.0, 1.0, -1.0, 0.5, -0.5, 3.14159, -1234.5678}) {
    EXPECT_NEAR(q.to_double(q.from_double(v)), v, 1.0 / (1 << 16));
  }
}

TEST(Fixed, QRoundsToNearest) {
  const util::Q q(8);
  EXPECT_EQ(q.from_double(1.0 / 512.0), 1);   // 0.5 ulp rounds away
  EXPECT_EQ(q.from_double(-1.0 / 512.0), -1);
  EXPECT_EQ(q.from_double(0.9 / 512.0), 0);   // below 0.5 ulp truncates
}

TEST(Fixed, QMul) {
  const util::Q q(16);
  const i32 half = q.from_double(0.5);
  const i32 three = q.from_double(3.0);
  EXPECT_NEAR(q.to_double(q.mul(half, three)), 1.5, 1e-4);
  EXPECT_NEAR(q.to_double(q.mul(three, three)), 9.0, 1e-4);
}

TEST(Fixed, Saturate) {
  EXPECT_EQ(util::saturate(100, 8), 100);
  EXPECT_EQ(util::saturate(200, 8), 127);
  EXPECT_EQ(util::saturate(-200, 8), -128);
  EXPECT_EQ(util::saturate(i64{1} << 40, 32), 2147483647);
}

TEST(Fixed, Pack16) {
  const u32 w = util::pack16(-2, 3);
  EXPECT_EQ(util::unpack16_lo(w), -2);
  EXPECT_EQ(util::unpack16_hi(w), 3);
  EXPECT_EQ(util::pack16(-1, -1), 0xFFFFFFFFu);
}

TEST(Fixed, WordConversion) {
  EXPECT_EQ(util::from_word(util::to_word(-123456)), -123456);
  EXPECT_EQ(util::to_word(-1), 0xFFFFFFFFu);
}

// ---------------------------------------------------------------- parse --

TEST(Parse, BoundedReaderRefusesWhatStrtoulMisread) {
  EXPECT_EQ(util::read_uint("0", 9), 0u);
  EXPECT_EQ(util::read_uint("0x0C9A5EED", UINT64_MAX), 0x0C9A'5EEDu);
  EXPECT_EQ(util::read_uint("18446744073709551615", UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(util::read_uint("255", 255), 255u);
  for (const char* bad : {"", "256", "-1", "+5", " 5", "5 ", "010", "0x",
                          "0x-1", "1e3", "18446744073709551616"}) {
    EXPECT_FALSE(util::read_uint(bad, 255)) << bad;
  }
  EXPECT_EQ(util::read_int("-8192", -8192, 8191), -8192);
  EXPECT_EQ(util::read_int("-0x10", -100, 100), -16);
  EXPECT_EQ(util::read_int("-9223372036854775808", INT64_MIN, 0), INT64_MIN);
  EXPECT_FALSE(util::read_int("-8193", -8192, 8191));
  EXPECT_FALSE(util::read_int("-1", 0, 10));  // no sign on an unsigned field
  EXPECT_FALSE(util::read_int("--1", -10, 10));
}

// ------------------------------------------------------------------ rng --

TEST(Rng, Deterministic) {
  util::Rng a(42);
  util::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, SeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u32() == b.next_u32());
  EXPECT_LT(same, 4);
}

TEST(Rng, RangeBounds) {
  util::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const i32 v = r.range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIsInUnitInterval) {
  util::Rng r(9);
  double sum = 0;
  for (int i = 0; i < 4000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 4000.0, 0.5, 0.03);
}

// ----------------------------------------------------------- reference --

TEST(Reference, BitReverse) {
  EXPECT_EQ(util::bit_reverse(0b001, 3), 0b100u);
  EXPECT_EQ(util::bit_reverse(0b110, 3), 0b011u);
  EXPECT_EQ(util::bit_reverse(1, 8), 128u);
  // Involution.
  for (u32 v = 0; v < 64; ++v) {
    EXPECT_EQ(util::bit_reverse(util::bit_reverse(v, 6), 6), v);
  }
}

TEST(Reference, DftOfImpulseIsFlat) {
  std::vector<util::cplx> x(8, {0, 0});
  x[0] = {1, 0};
  const auto X = util::reference_dft(x);
  for (const auto& v : X) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Reference, DftOfSingleTone) {
  const std::size_t n = 16;
  std::vector<util::cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = 2.0 * M_PI * 3.0 * static_cast<double>(i) / n;
    x[i] = {std::cos(a), std::sin(a)};
  }
  const auto X = util::reference_dft(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double mag = std::abs(X[k]);
    if (k == 3) {
      EXPECT_NEAR(mag, static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

TEST(Reference, IdftInvertsDft) {
  util::Rng r(3);
  std::vector<util::cplx> x(32);
  for (auto& v : x) v = {r.uniform() - 0.5, r.uniform() - 0.5};
  const auto back = util::reference_idft(util::reference_dft(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(back[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(back[i].imag(), x[i].imag(), 1e-10);
  }
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, FftMatchesDirectDft) {
  const std::size_t n = GetParam();
  util::Rng r(n);
  std::vector<util::cplx> x(n);
  for (auto& v : x) v = {r.uniform() - 0.5, r.uniform() - 0.5};
  const auto fast = util::reference_fft(x);
  const auto slow = util::reference_dft(x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(fast[i].real(), slow[i].real(), 1e-8 * n);
    EXPECT_NEAR(fast[i].imag(), slow[i].imag(), 1e-8 * n);
  }
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  util::Rng r(n + 99);
  std::vector<util::cplx> x(n);
  double time_energy = 0;
  for (auto& v : x) {
    v = {r.uniform() - 0.5, r.uniform() - 0.5};
    time_energy += std::norm(v);
  }
  const auto X = util::reference_fft(x);
  double freq_energy = 0;
  for (const auto& v : X) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-7 * static_cast<double>(n * n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024));

TEST(Reference, FftRejectsNonPow2) {
  std::vector<util::cplx> x(12);
  EXPECT_THROW(util::reference_fft(x), ConfigError);
}

TEST(Reference, Dct8x8RoundTrip) {
  util::Rng r(11);
  double in[64];
  double coef[64];
  double back[64];
  for (auto& v : in) v = r.range(-128, 127);
  util::reference_dct8x8(in, coef);
  util::reference_idct8x8(coef, back);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(back[i], in[i], 1e-9);
}

TEST(Reference, DctDcCoefficient) {
  double in[64];
  double coef[64];
  for (auto& v : in) v = 8.0;
  util::reference_dct8x8(in, coef);
  EXPECT_NEAR(coef[0], 64.0, 1e-9);  // DC = 8 * sum/8 (orthonormal)
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coef[i], 0.0, 1e-9);
}

TEST(Reference, Hexdump) {
  const std::string s = util::hexdump({0xDEADBEEF, 0x12345678}, 0x100);
  EXPECT_NE(s.find("deadbeef"), std::string::npos);
  EXPECT_NE(s.find("00000100"), std::string::npos);
}

// ----------------------------------------------------------- transforms --

TEST(Transforms, FixedIdctMatchesDoubleReference) {
  util::Rng r(21);
  for (int trial = 0; trial < 20; ++trial) {
    i32 coef[64];
    double coef_d[64];
    for (int i = 0; i < 64; ++i) {
      coef[i] = r.range(-1024, 1023);
      coef_d[i] = coef[i];
    }
    i32 pix[64];
    double pix_d[64];
    util::fixed_idct8x8(coef, pix);
    util::reference_idct8x8(coef_d, pix_d);
    // Q14 cosines plus the integer rounding between the row and column
    // passes: worst case is a little over one LSB of the output.
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(static_cast<double>(pix[i]), pix_d[i], 2.0)
          << "trial " << trial << " sample " << i;
    }
  }
}

TEST(Transforms, FixedIdctOfZeroIsZero) {
  i32 coef[64] = {};
  i32 pix[64];
  util::fixed_idct8x8(coef, pix);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(pix[i], 0);
}

TEST(Transforms, FixedIdctDcOnly) {
  i32 coef[64] = {};
  coef[0] = 512;  // orthonormal DC: every output = 512/8 = 64
  i32 pix[64];
  util::fixed_idct8x8(coef, pix);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(pix[i], 64, 1);
}

TEST(Transforms, TwiddleTableValues) {
  const auto t = util::make_twiddles(8);
  ASSERT_EQ(t.cos_q.size(), 4u);
  const util::Q q(util::kFftFrac);
  EXPECT_NEAR(q.to_double(t.cos_q[0]), 1.0, 1e-4);
  EXPECT_NEAR(q.to_double(t.msin_q[0]), 0.0, 1e-4);
  EXPECT_NEAR(q.to_double(t.cos_q[2]), 0.0, 1e-4);
  EXPECT_NEAR(q.to_double(t.msin_q[2]), 1.0, 1e-4);  // -sin(-pi/2) = 1
}

class FixedFftSizes : public ::testing::TestWithParam<u32> {};

TEST_P(FixedFftSizes, MatchesScaledReference) {
  const u32 n = GetParam();
  util::Rng r(n * 3 + 1);
  const util::Q q(util::kFftFrac);
  std::vector<i32> re(n);
  std::vector<i32> im(n);
  std::vector<util::cplx> x(n);
  for (u32 i = 0; i < n; ++i) {
    const double a = r.uniform() - 0.5;
    const double b = r.uniform() - 0.5;
    re[i] = q.from_double(a);
    im[i] = q.from_double(b);
    x[i] = {q.to_double(re[i]), q.to_double(im[i])};
  }
  util::fixed_fft(re, im);
  const auto X = util::reference_fft(x);
  const double scale = 1.0 / static_cast<double>(n);
  // Fixed-point error grows with the number of stages; a few LSBs of
  // Q16.16 per stage.
  const double tol = 1e-4 * static_cast<double>(log2_exact(n) + 1);
  for (u32 i = 0; i < n; ++i) {
    EXPECT_NEAR(q.to_double(re[i]), X[i].real() * scale, tol) << "bin " << i;
    EXPECT_NEAR(q.to_double(im[i]), X[i].imag() * scale, tol) << "bin " << i;
  }
}

TEST_P(FixedFftSizes, ImpulseGivesFlatSpectrum) {
  const u32 n = GetParam();
  const util::Q q(util::kFftFrac);
  std::vector<i32> re(n, 0);
  std::vector<i32> im(n, 0);
  re[0] = q.from_double(0.5);
  util::fixed_fft(re, im);
  // Every bin = 0.5/n.
  for (u32 i = 0; i < n; ++i) {
    EXPECT_NEAR(q.to_double(re[i]), 0.5 / n, 2e-4);
    EXPECT_NEAR(q.to_double(im[i]), 0.0, 2e-4);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FixedFftSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 256, 1024));

TEST(Transforms, FixedFftNeverOverflows) {
  // Worst-case full-scale inputs: the per-stage halving must keep every
  // intermediate inside i32 (this is the overflow-free design property).
  const u32 n = 256;
  std::vector<i32> re(n);
  std::vector<i32> im(n);
  util::Rng r(5);
  for (u32 i = 0; i < n; ++i) {
    re[i] = r.chance(0.5) ? 0x7FFF0000 : -0x7FFF0000;
    im[i] = r.chance(0.5) ? 0x7FFF0000 : -0x7FFF0000;
  }
  EXPECT_NO_THROW(util::fixed_fft(re, im));
}

TEST(Transforms, FixedFftSizeChecks) {
  std::vector<i32> re(12), im(12);
  EXPECT_THROW(util::fixed_fft(re, im), ConfigError);
  std::vector<i32> re2(8), im2(4);
  EXPECT_THROW(util::fixed_fft(re2, im2), ConfigError);
}

}  // namespace
}  // namespace ouessant
