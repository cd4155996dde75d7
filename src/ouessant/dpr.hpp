// Dynamic Partial Reconfiguration support — one of the paper's announced
// work-in-progress features ("Current work in progress includes complete
// Zynq (AXI4) integration, and Dynamic Partial Reconfiguration").
//
// ReconfigSlot models a reconfigurable region hosting one of several
// pre-implemented RACs ("partial bitstreams"). The static side of the
// region — the FIFO interface the OCP wires up — is fixed: every
// candidate must expose the same pin shape (FIFO count and RAC-side
// width), and the region's FIFOs are sized to the capacity envelope (the
// element-wise max over candidates), so every partial bitstream fits the
// static pins.
//
// The region only gates itself: begin_swap() closes it for a new
// candidate, and the configuration port that streams the bitstream
// (dpr::IcapPort, the one module that times a swap) calls finish_swap()
// when its load completes. In between the slot reports busy and
// start_op is a fault, exactly like real DPR flows decouple the region.
#pragma once

#include <vector>

#include "ouessant/rac_if.hpp"

namespace ouessant::core {

class ReconfigSlot : public Rac {
 public:
  /// @p candidates must all expose the same pin shape (FIFO count and
  /// RAC-side width — the fixed static interface of the region);
  /// capacities may differ and are enveloped. Candidate 0 is loaded at
  /// construction ("initial configuration").
  ReconfigSlot(sim::Kernel& kernel, std::string name,
               std::vector<Rac*> candidates);

  /// Gate the region for a swap to candidate @p index, whose bitstream a
  /// configuration port then streams. Throws SimError for an unknown
  /// candidate or while the region is busy (a real flow must quiesce the
  /// accelerator first); false when @p index is already active (no swap
  /// needed). While pending, busy() is high and start() faults.
  bool begin_swap(std::size_t index);
  /// Commit the pending swap at the current cycle: the target becomes
  /// active. Called by the configuration port's completion.
  void finish_swap();

  [[nodiscard]] bool reconfiguring() const { return swapping_; }
  [[nodiscard]] std::size_t active_index() const { return active_; }
  [[nodiscard]] std::size_t candidate_count() const {
    return candidates_.size();
  }
  [[nodiscard]] Rac& candidate(std::size_t i) { return *candidates_.at(i); }
  [[nodiscard]] u64 swaps() const { return swaps_; }

  /// Partial-bitstream size model: configuration frames scale with the
  /// logic/RAM content of the region (Artix7-class constants).
  [[nodiscard]] static u32 bitstream_bytes_for(const res::ResourceEstimate& e);

  // -- core::Rac (delegating to the active candidate) -------------------
  /// Region pins: the capacity envelope over candidates (the static-side
  /// FIFOs must hold the largest candidate's blocks).
  [[nodiscard]] std::vector<FifoSpec> input_specs() const override;
  [[nodiscard]] std::vector<FifoSpec> output_specs() const override;
  void bind(std::vector<fifo::WidthFifo*> in,
            std::vector<fifo::WidthFifo*> out) override;
  void start() override;
  [[nodiscard]] bool busy() const override;
  [[nodiscard]] u64 completed_ops() const override;
  /// end_op pulses come from whichever candidate is active — forward the
  /// subscription to all of them (inactive ones never fire).
  void wake_on_end_op(sim::Component& c) override {
    for (Rac* cand : candidates_) cand->wake_on_end_op(c);
  }
  /// Busy windows open on the candidates (start() forwards), so the
  /// slot's busy total is the sum over them.
  [[nodiscard]] u64 busy_cycles() const override {
    u64 sum = 0;
    for (const Rac* cand : candidates_) sum += cand->busy_cycles();
    return sum;
  }
  /// Same forwarding for tracing: spans appear on the candidates' tracks.
  void set_tracer(obs::EventTracer* tracer) override {
    for (Rac* cand : candidates_) cand->set_tracer(tracer);
  }
  /// A controller reset on a DPR region aborts the resident accelerator
  /// through the decouple logic: whatever the candidate had in flight is
  /// gone (slot preemption relies on this — the quiesce sequence must
  /// leave the region idle).
  void abort_op() override {
    Rac::abort_op();
    for (Rac* cand : candidates_) cand->abort_op();
  }

  /// The slot does no timed work of its own: the candidates tick, and
  /// the configuration port times every swap.
  [[nodiscard]] bool is_quiescent() const override { return true; }
  /// Active/target index, the swap gate and the swap count. Candidate
  /// RACs are kernel components and carry their own state.
  void state(snap::Fields& f) override;

  /// Region resources: the max over candidates (the region must fit the
  /// largest bitstream) plus the static decoupling logic.
  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  static void check_specs_match(const std::vector<Rac*>& candidates);

  std::vector<Rac*> candidates_;
  std::size_t active_ = 0;
  std::size_t target_ = 0;
  u64 swaps_ = 0;
  bool swapping_ = false;  // region gated, the port streams the image
};

}  // namespace ouessant::core
