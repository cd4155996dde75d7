// Streaming RAC skeleton, the counterpart of BlockRac for cores that
// stream instead of collecting a block (FirRac, VecAddRac,
// ConfigurableFirRac). After start_op, on every cycle on which each of
// its 1–2 data inputs holds a 32-bit token and the output FIFO has room,
// such a core reads one token from each input in lock-step and writes
// one result token; end_op follows the block_len-th. StreamRac owns that
// envelope cycle-accurately; a subclass supplies step(), an optional
// start hook, its field list and its resource tree. A configuration
// FIFO, when its spec is given, is bound after the data inputs and read
// by the subclass alone.
#pragma once

#include <array>
#include <optional>

#include "ouessant/rac_if.hpp"

namespace ouessant::rac {

class StreamRac : public core::Rac {
 public:
  static constexpr u32 kMaxStreams = 2;
  /// One token of each data input, in input order.
  using Tokens = std::array<u32, kMaxStreams>;

  /// @p streams data inputs (1 or 2) and one output, each a 32-bit FIFO
  /// holding max(@p block_len, 64) tokens; @p block_len tokens per
  /// operation. @p config adds a configuration FIFO after the inputs.
  StreamRac(sim::Kernel& kernel, std::string name, u32 block_len, u32 streams,
            std::optional<FifoSpec> config = std::nullopt);

  // core::Rac
  [[nodiscard]] std::vector<FifoSpec> input_specs() const override;
  [[nodiscard]] std::vector<FifoSpec> output_specs() const override;
  void bind(std::vector<fifo::WidthFifo*> in,
            std::vector<fifo::WidthFifo*> out) override;
  void start() override;
  [[nodiscard]] bool busy() const override { return busy_; }
  [[nodiscard]] u64 completed_ops() const override { return completed_; }
  /// RST / slot preemption: drop the in-flight block (tokens already
  /// produced are lost with the flushed FIFOs) and return to idle.
  void abort_op() override;

  // sim::Component
  /// One token per cycle while busy and every FIFO is willing.
  void tick_compute() override;
  /// Quiescent while idle or blocked on a FIFO (every wait tick is a
  /// no-op); start() and the bound FIFOs' commit edges wake the core.
  [[nodiscard]] bool is_quiescent() const override;

  [[nodiscard]] u32 block_len() const { return block_len_; }

 protected:
  /// The result token for one token of each data input (entries past
  /// the input count are zero). Called once per transferred token.
  [[nodiscard]] virtual u32 step(const Tokens& in) = 0;
  /// Called by start() after the guards, with busy() already high.
  virtual void on_start() {}

  /// The configuration FIFO (only when a spec was given; bound).
  [[nodiscard]] fifo::WidthFifo& config_fifo() const { return *config_; }

  // The envelope's state. Each subclass lists these in its field list,
  // in its own wire order.
  bool busy_ = false;
  u32 remaining_ = 0;  ///< tokens left in the open operation
  u64 completed_ = 0;

 private:
  /// A data input's or the output's spec.
  [[nodiscard]] FifoSpec token_spec() const;

  u32 block_len_;
  u32 streams_;
  std::optional<FifoSpec> config_spec_;
  std::array<fifo::WidthFifo*, kMaxStreams> in_{};
  fifo::WidthFifo* config_ = nullptr;
  fifo::WidthFifo* out_ = nullptr;
};

}  // namespace ouessant::rac
