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

#include "rac/stream_rac.hpp"

namespace ouessant::rac {

class ConfigurableFirRac : public StreamRac {
 public:
  /// @p taps_n coefficients (Q16.16), initially all zero (the filter
  /// mutes until configured). @p block_len samples per operation.
  ConfigurableFirRac(sim::Kernel& kernel, std::string name, u32 taps_n,
                     u32 block_len);

  /// RST: also ends a reload. Taps it already wrote stay; the delay
  /// line clears on the next start_op anyway.
  void abort_op() override;
  /// While loading: one tap per cycle from the configuration FIFO.
  void tick_compute() override;
  /// While loading: quiescent until the configuration FIFO holds a tap.
  [[nodiscard]] bool is_quiescent() const override;
  void state(snap::Fields& f) override;

  [[nodiscard]] u64 reconfig_count() const { return reconfigs_; }

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  [[nodiscard]] u32 step(const Tokens& in) override;
  /// Clears the delay line; may start a reload.
  void on_start() override;

  u32 taps_n_;
  /// The taps_n coefficients, then the taps_n-entry delay line.
  std::vector<i32> taps_and_delay_;
  bool loading_ = false;  ///< busy, loading taps before the stream
  u32 taps_loaded_ = 0;
  u64 reconfigs_ = 0;
};

}  // namespace ouessant::rac
