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

#include "ouessant/rac_if.hpp"
#include "util/fixed.hpp"

namespace ouessant::rac {

class FirRac : public core::Rac {
 public:
  /// @p taps_q16: impulse response in Q16.16. @p block_len samples per
  /// operation.
  FirRac(sim::Kernel& kernel, std::string name, std::vector<i32> taps_q16,
         u32 block_len);

  // core::Rac
  [[nodiscard]] std::vector<FifoSpec> input_specs() const override;
  [[nodiscard]] std::vector<FifoSpec> output_specs() const override;
  void bind(std::vector<fifo::WidthFifo*> in,
            std::vector<fifo::WidthFifo*> out) override;
  void start() override;
  [[nodiscard]] bool busy() const override { return busy_; }
  [[nodiscard]] u64 completed_ops() const override { return completed_; }
  /// RST / slot preemption: drop the in-flight block and return to idle
  /// (the delay line clears on the next start_op anyway).
  void abort_op() override {
    core::Rac::abort_op();
    busy_ = false;
    remaining_ = 0;
  }

  // sim::Component
  void tick_compute() override;
  void state(snap::Fields& f) override;
  /// Quiescent while idle or FIFO-blocked (all wait ticks are no-ops);
  /// start() and the bound FIFOs' commit edges wake the datapath.
  [[nodiscard]] bool is_quiescent() const override {
    if (!busy_) return true;
    return in_->empty() || out_->full();
  }

  [[nodiscard]] u32 block_len() const { return block_len_; }

  /// Reference output for a block (used by tests/examples): identical to
  /// the datapath arithmetic.
  [[nodiscard]] static std::vector<i32> filter_reference(
      const std::vector<i32>& taps_q16, const std::vector<i32>& x);

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  [[nodiscard]] i32 step(i32 x);

  std::vector<i32> taps_;
  u32 block_len_;
  fifo::WidthFifo* in_ = nullptr;
  fifo::WidthFifo* out_ = nullptr;

  bool busy_ = false;
  u32 remaining_ = 0;
  std::vector<i32> delay_;  // delay line, delay_[0] = newest
  u64 completed_ = 0;
};

}  // namespace ouessant::rac
