// Streaming FIR filter RAC.
//
// Not one of the paper's two accelerators — it is the "adding new
// accelerators is also made easier" demonstration: a third core written
// against the Rac contract with no changes anywhere else. Unlike the
// block RACs it is a true streaming datapath: one sample in, one sample
// out per cycle (after start_op), with the classic transversal-filter
// structure (shift register of samples, one MAC per tap).
//
// Interface: block_len samples of Q16.16 i32, one word each; output is
// y[i] = sum_k h[k] * x[i-k] with x[<0] = 0 (state clears on start_op).
#pragma once

#include <span>

#include "rac/stream_rac.hpp"
#include "util/fixed.hpp"

namespace ouessant::rac {

/// One transversal-filter step: shift @p x into @p delay (delay[0] the
/// newest sample, one entry per tap) and return the Q16.16 MAC over
/// @p taps_q16, accumulated wide and rounded once at the end, as the DSP
/// cascade would do.
[[nodiscard]] i32 fir_step(std::span<const i32> taps_q16, std::span<i32> delay,
                           i32 x);

class FirRac : public StreamRac {
 public:
  /// @p taps_q16: impulse response in Q16.16. @p block_len samples per
  /// operation.
  FirRac(sim::Kernel& kernel, std::string name, std::vector<i32> taps_q16,
         u32 block_len);

  void state(snap::Fields& f) override;

  /// Reference output for a block (used by tests/examples): identical to
  /// the datapath arithmetic.
  [[nodiscard]] static std::vector<i32> filter_reference(
      const std::vector<i32>& taps_q16, const std::vector<i32>& x);

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  [[nodiscard]] u32 step(const Tokens& in) override;
  /// The delay line clears on every start_op.
  void on_start() override;

  std::vector<i32> taps_;
  std::vector<i32> delay_;
};

}  // namespace ouessant::rac
