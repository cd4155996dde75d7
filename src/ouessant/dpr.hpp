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
// static pins. Swapping streams the new bitstream through the
// configuration port; two flows exist:
//
//   * request_swap(): the seed's free-ICAP countdown — the slot itself
//     counts bitstream_bytes / icap_bytes_per_cycle cycles down with no
//     bus traffic (e7_dpr's model, kept bit-identical).
//   * begin_external_swap()/finish_external_swap(): the region only
//     gates itself; an external configuration port (dpr::IcapPort)
//     streams the bitstream over the shared bus and commits the swap on
//     completion — reconfiguration that genuinely contends with OCP
//     transfers.
//
// During reconfiguration the slot reports busy and start_op is a fault,
// exactly like real DPR flows gate the region.
#pragma once

#include <vector>

#include "ouessant/rac_if.hpp"

namespace ouessant::core {

struct IcapConfig {
  /// 7-series ICAP is 32 bits wide, one word per cycle.
  u32 bytes_per_cycle = 4;
  /// Extra cycles per swap: decouple logic, flush, reset sequence.
  u32 swap_overhead_cycles = 64;
};

class ReconfigSlot : public Rac {
 public:
  /// @p candidates must all expose the same pin shape (FIFO count and
  /// RAC-side width — the fixed static interface of the region);
  /// capacities may differ and are enveloped. Candidate 0 is loaded at
  /// construction ("initial configuration").
  ReconfigSlot(sim::Kernel& kernel, std::string name,
               std::vector<Rac*> candidates, IcapConfig icap = {});

  // -- DPR control (host side; models the ICAP driver) -----------------
  /// Begin loading candidate @p index. Throws SimError while the active
  /// RAC is busy (a real flow must quiesce the region first).
  void request_swap(std::size_t index);

  // -- externally-driven reconfiguration (dpr::IcapPort flow) -----------
  /// Gate the region for a swap to candidate @p index whose bitstream an
  /// external configuration port streams. Validates like request_swap();
  /// false when @p index is already active (no swap needed). While
  /// pending, busy() is high and start() faults, but the slot itself
  /// does no timed work — the streaming cost lives on the port.
  bool begin_external_swap(std::size_t index);
  /// Commit the externally-streamed swap at the current cycle: the
  /// target becomes active and the gated window is folded into
  /// reconfig_cycles_total().
  void finish_external_swap();

  [[nodiscard]] bool reconfiguring() const {
    return reconfig_left_ > 0 || external_swap_;
  }
  [[nodiscard]] std::size_t active_index() const { return active_; }
  [[nodiscard]] std::size_t candidate_count() const {
    return candidates_.size();
  }
  [[nodiscard]] Rac& candidate(std::size_t i) { return *candidates_.at(i); }
  [[nodiscard]] u64 swaps() const { return swaps_; }
  /// Total cycles spent streaming bitstreams (or externally gated), with
  /// cycles the countdown spent clock-gated folded in.
  [[nodiscard]] u64 reconfig_cycles_total() const {
    return reconfig_cycles_total_ +
           (reconfig_left_ > 0 ? pending_credit() : 0);
  }

  /// Cycles a swap to @p index takes (bitstream size / ICAP throughput
  /// plus the fixed overhead).
  [[nodiscard]] u32 swap_cycles(std::size_t index) const;

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

  // sim::Component
  void tick_compute() override;
  /// Quiescent when no countdown is in flight (request_swap wakes us) or
  /// once the countdown has armed its completion timer. The brief window
  /// between request_swap and the first countdown tick stays awake so
  /// that tick can arm the timer. An external swap never ticks here (the
  /// configuration port does the timed work), so it stays quiescent.
  [[nodiscard]] bool is_quiescent() const override {
    return reconfig_left_ == 0 || countdown_timer_armed_;
  }
  /// Active/target index, countdown remainder, sleep-credit anchor, the
  /// external-swap gate, and the swap counters — a mid-reconfiguration
  /// snapshot resumes the countdown exactly. Candidate RACs are kernel
  /// components and carry their own state.
  void state(snap::Fields& f) override;

  /// Region resources: the max over candidates (the region must fit the
  /// largest bitstream) plus the static decoupling logic.
  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  static void check_specs_match(const std::vector<Rac*>& candidates);

  std::vector<Rac*> candidates_;
  IcapConfig icap_;
  std::size_t active_ = 0;
  std::size_t target_ = 0;
  u32 reconfig_left_ = 0;
  u64 swaps_ = 0;
  u64 reconfig_cycles_total_ = 0;
  bool countdown_timer_armed_ = false;
  Cycle next_expected_tick_ = 0;  // sleep-credit anchor for the countdown
  bool external_swap_ = false;    // region gated, port streams the image
  Cycle external_begin_ = 0;
  [[nodiscard]] u64 pending_credit() const {
    const Cycle now = kernel().now();
    return now > next_expected_tick_ ? now - next_expected_tick_ : 0;
  }
};

}  // namespace ouessant::core
