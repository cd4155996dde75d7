// Block-oriented RAC skeleton.
//
// Most FIFO-interfaced accelerators (including both of the paper's: the
// 2D IDCT and the Spiral iterative DFT) follow the same envelope: after
// start_op they drain a fixed number of input chunks from their input
// FIFO (one per cycle when available), compute for a fixed pipeline
// latency, stream a fixed number of output chunks into their output FIFO,
// and raise end_op. BlockRac implements that envelope cycle-accurately;
// subclasses supply the chunk counts, the compute latency, and the
// (bit-exact) transfer function.
#pragma once

#include <vector>

#include "ouessant/rac_if.hpp"

namespace ouessant::rac {

class BlockRac : public core::Rac {
 public:
  struct Shape {
    u32 in_chunks;        ///< RAC-side chunks consumed per operation
    u32 out_chunks;       ///< RAC-side chunks produced per operation
    unsigned in_width;    ///< bits per input chunk
    unsigned out_width;   ///< bits per output chunk
    u32 compute_cycles;   ///< latency between last input and first output
    u32 in_capacity_bits = 0;   ///< input FIFO sizing (0: default)
    u32 out_capacity_bits = 0;  ///< output FIFO sizing (0: default)
  };

  BlockRac(sim::Kernel& kernel, std::string name, Shape shape);

  // core::Rac
  [[nodiscard]] std::vector<FifoSpec> input_specs() const override;
  [[nodiscard]] std::vector<FifoSpec> output_specs() const override;
  void bind(std::vector<fifo::WidthFifo*> in,
            std::vector<fifo::WidthFifo*> out) override;
  void start() override;
  [[nodiscard]] bool busy() const override { return busy_; }
  [[nodiscard]] u64 completed_ops() const override { return completed_; }
  /// RST / slot preemption: drop the in-flight block (collected inputs
  /// and un-emitted outputs included) and return to idle. The
  /// interrupted op's busy window closes at the abort cycle; it never
  /// counts as completed.
  void abort_op() override;

  // sim::Component
  void tick_compute() override;
  void state(snap::Fields& f) override;
  /// Quiescent while idle, blocked on a FIFO flag, or inside the compute
  /// latency (a wake_at timer is armed for the end of the countdown, and
  /// skipped decrements are credited in bulk on wake-up).
  [[nodiscard]] bool is_quiescent() const override;

  [[nodiscard]] const Shape& shape() const { return shape_; }

 protected:
  /// The accelerator's transfer function over one block of RAC-side
  /// chunks. Must be deterministic; called once per operation when the
  /// last input chunk has been consumed.
  [[nodiscard]] virtual std::vector<u64> compute(
      const std::vector<u64>& in) = 0;

 private:
  enum class Phase { kIdle, kCollect, kCompute, kEmit };

  Shape shape_;
  fifo::WidthFifo* in_ = nullptr;
  fifo::WidthFifo* out_ = nullptr;

  Phase phase_ = Phase::kIdle;
  bool busy_ = false;
  std::vector<u64> in_buf_;
  std::vector<u64> out_buf_;
  std::size_t emit_index_ = 0;
  u32 compute_left_ = 0;
  u64 completed_ = 0;
  Cycle next_expected_tick_ = 0;  // sleep-credit anchor for compute_left_
};

}  // namespace ouessant::rac
