// FIR filter RAC with a dedicated configuration FIFO — the paper's
// multi-FIFO scenario: "The number of input and output interfaces can be
// adapted according to the accelerator requirements. For example, a
// dedicated configuration FIFO can be added if the accelerator requires
// additional configuration."
//
// FIFO layout: input FIFO 0 carries sample data, input FIFO 1 carries
// coefficient updates; output FIFO 0 carries filtered samples. At each
// start_op the core first checks the configuration FIFO: if a complete
// coefficient set is present it is loaded (one tap per cycle) before
// filtering begins; otherwise the previous coefficients are kept. The
// microcode chooses per invocation whether to send a new configuration:
//
//     mvtc BANK3,0,DMA16,FIFO1   // optional: new taps
//     mvtc BANK1,0,DMA64,FIFO0   // samples
//     exec
//     mvfc BANK2,0,DMA64,FIFO0
//     eop
#pragma once

#include "ouessant/rac_if.hpp"
#include "util/fixed.hpp"

namespace ouessant::rac {

class ConfigurableFirRac : public core::Rac {
 public:
  /// @p taps_n coefficients (Q16.16), initially all zero (the filter
  /// mutes until configured). @p block_len samples per operation.
  ConfigurableFirRac(sim::Kernel& kernel, std::string name, u32 taps_n,
                     u32 block_len);

  // core::Rac
  [[nodiscard]] std::vector<FifoSpec> input_specs() const override;
  [[nodiscard]] std::vector<FifoSpec> output_specs() const override;
  void bind(std::vector<fifo::WidthFifo*> in,
            std::vector<fifo::WidthFifo*> out) override;
  void start() override;
  [[nodiscard]] bool busy() const override { return busy_; }
  [[nodiscard]] u64 completed_ops() const override { return completed_; }
  /// RST: drop the in-flight block and return to idle. Taps an
  /// interrupted reload already wrote stay; the delay line clears on the
  /// next start_op anyway.
  void abort_op() override {
    core::Rac::abort_op();
    phase_ = Phase::kIdle;
    busy_ = false;
    taps_loaded_ = 0;
    remaining_ = 0;
  }

  // sim::Component
  void tick_compute() override;
  void state(snap::Fields& f) override;
  /// Quiescent while idle or blocked on the phase's FIFOs.
  [[nodiscard]] bool is_quiescent() const override {
    switch (phase_) {
      case Phase::kIdle:
        return true;
      case Phase::kLoadTaps:
        return cfg_in_->empty();
      case Phase::kStream:
        return data_in_->empty() || out_->full();
    }
    return false;
  }

  [[nodiscard]] u32 block_len() const { return block_len_; }
  [[nodiscard]] u64 reconfig_count() const { return reconfigs_; }

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  enum class Phase { kIdle, kLoadTaps, kStream };

  [[nodiscard]] i32 step(i32 x);

  u32 taps_n_;
  u32 block_len_;
  std::vector<i32> taps_;
  std::vector<i32> delay_;

  fifo::WidthFifo* data_in_ = nullptr;
  fifo::WidthFifo* cfg_in_ = nullptr;
  fifo::WidthFifo* out_ = nullptr;

  Phase phase_ = Phase::kIdle;
  bool busy_ = false;
  u32 taps_loaded_ = 0;
  u32 remaining_ = 0;
  u64 completed_ = 0;
  u64 reconfigs_ = 0;
};

}  // namespace ouessant::rac
