// Two-input streaming RAC: element-wise saturating add of two vectors.
//
// Exercises the multi-FIFO side of the integration contract with two
// *data* streams (unlike ConfigurableFirRac, whose second FIFO carries
// configuration): microcode routes one operand bank to FIFO0 and the
// other to FIFO1, and the core consumes them in lock-step —
//
//     mvtc BANK1,0,DMA64,FIFO0    // operand A
//     mvtc BANK3,0,DMA64,FIFO1    // operand B
//     exec
//     mvfc BANK2,0,DMA64,FIFO0
//     eop
#pragma once

#include "ouessant/rac_if.hpp"
#include "util/fixed.hpp"

namespace ouessant::rac {

class VecAddRac : public core::Rac {
 public:
  VecAddRac(sim::Kernel& kernel, std::string name, u32 block_len);

  // core::Rac
  [[nodiscard]] std::vector<FifoSpec> input_specs() const override;
  [[nodiscard]] std::vector<FifoSpec> output_specs() const override;
  void bind(std::vector<fifo::WidthFifo*> in,
            std::vector<fifo::WidthFifo*> out) override;
  void start() override;
  [[nodiscard]] bool busy() const override { return busy_; }
  [[nodiscard]] u64 completed_ops() const override { return completed_; }
  /// RST: drop the in-flight vector (elements already summed are lost
  /// with the flushed FIFOs) and return to idle.
  void abort_op() override {
    core::Rac::abort_op();
    busy_ = false;
    remaining_ = 0;
  }

  // sim::Component
  void tick_compute() override;
  void state(snap::Fields& f) override;
  /// Quiescent while idle or blocked on any of the three FIFOs.
  [[nodiscard]] bool is_quiescent() const override {
    if (!busy_) return true;
    return a_->empty() || b_->empty() || out_->full();
  }

  [[nodiscard]] u32 block_len() const { return block_len_; }

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  u32 block_len_;
  fifo::WidthFifo* a_ = nullptr;
  fifo::WidthFifo* b_ = nullptr;
  fifo::WidthFifo* out_ = nullptr;
  bool busy_ = false;
  u32 remaining_ = 0;
  u64 completed_ = 0;
};

}  // namespace ouessant::rac
