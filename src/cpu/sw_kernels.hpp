// Timing-annotated software implementations of the paper's workloads — the
// "SW" column of Table I.
//
// Each kernel computes its result functionally (reading/writing the
// simulated SRAM through the backdoor, since a cached CPU's data accesses
// do not appear as individual bus transactions) while a CostMeter charges
// Leon3-calibrated cycle costs for every operation the algorithm actually
// executes; the total is then spent on the simulated clock via Gpp::spend.
//
// Numerical contracts:
//  * sw_idct8x8 is bit-identical to the IDCT RAC (both call
//    util::fixed_idct8x8) — swapping SW for HW changes timing only.
//  * sw_dft_softfloat is the paper's software baseline: double-precision
//    arithmetic emulated in software (Leon3 without FPU), hence the ~600k
//    cycle cost for 256 points. Results are stored rescaled by 1/N to
//    match the RAC's overflow-free output scale.
#pragma once

#include "cpu/gpp.hpp"
#include "mem/sram.hpp"

namespace ouessant::cpu::sw {

/// In-memory layouts (word = 32 bits):
///  * IDCT: 64 words of i32 coefficients in, 64 words of i32 samples out.
///  * DFT:  n complex points as 2n words, interleaved re,im in
///    Q(util::kFftFrac) fixed point; output identical layout, scaled 1/n.

/// Returns cycles charged.
u64 sw_idct8x8(Gpp& gpp, mem::Sram& mem, Addr in, Addr out);

u64 sw_dft_softfloat(Gpp& gpp, mem::Sram& mem, Addr in, Addr out, u32 points);

/// Word-by-word software copy (the CPU-driven data path of the classic
/// bus-slave integration baseline).
u64 sw_copy_words(Gpp& gpp, mem::Sram& mem, Addr dst, Addr src, u32 words);

/// Cost-only variants (no Gpp, no memory): used by unit tests to check the
/// calibration lands in the paper's band without building a platform.
u64 cost_idct8x8(const CpuCosts& costs);
u64 cost_dft_softfloat(const CpuCosts& costs, u32 points);

}  // namespace ouessant::cpu::sw
