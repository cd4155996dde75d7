// The RAC (Reconfigurable Acceleration Coprocessor) integration contract.
//
// A RAC is the user-defined accelerator of Fig. 1/2: it communicates only
// through width-adapting FIFOs plus a start_op/end_op handshake, and "can
// be changed independently from other components of the OCP". Concrete
// accelerators live in src/rac; this header is the boundary the core
// library integrates against.
#pragma once

#include <string>
#include <vector>

#include "fault/hooks.hpp"
#include "fifo/width_fifo.hpp"
#include "obs/tracer.hpp"
#include "res/estimate.hpp"
#include "sim/kernel.hpp"
#include "snap/state.hpp"

namespace ouessant::core {

class Rac : public sim::Component, public res::ResourceAware {
 public:
  /// Describes one FIFO the OCP must instantiate for this RAC. The bus
  /// side of every FIFO is 32 bits; the RAC side is `rac_width` bits
  /// (serializing / deserializing FIFOs, paper Fig. 2: 32 <-> 96).
  struct FifoSpec {
    unsigned rac_width = 32;   ///< accelerator-port width in bits
    u32 capacity_bits = 0;     ///< 0: WidthFifo default sizing
  };

  Rac(sim::Kernel& kernel, std::string name)
      : sim::Component(kernel, std::move(name)) {}

  /// FIFOs feeding the accelerator (mvtc targets).
  [[nodiscard]] virtual std::vector<FifoSpec> input_specs() const = 0;
  /// FIFOs drained by the OCP (mvfc sources).
  [[nodiscard]] virtual std::vector<FifoSpec> output_specs() const = 0;

  /// Called once by the OCP after FIFO construction. `in[i]` matches
  /// input_specs()[i] (RAC reads its rd side); `out[i]` matches
  /// output_specs()[i] (RAC writes its wr side).
  virtual void bind(std::vector<fifo::WidthFifo*> in,
                    std::vector<fifo::WidthFifo*> out) = 0;

  /// start_op pulse from the controller (EXEC/EXECS).
  virtual void start() = 0;

  /// High from start_op until end_op.
  [[nodiscard]] virtual bool busy() const = 0;

  /// Number of completed operations (end_op count) — used by tests.
  [[nodiscard]] virtual u64 completed_ops() const = 0;

  /// Wake @p c on every end_op, so the controller can gate its clock
  /// while waiting out an exec (busy() high). One waiter: the owner.
  /// Virtual so wrappers (ReconfigSlot) can forward the subscription to
  /// the RACs that actually emit the pulse.
  virtual void wake_on_end_op(sim::Component& c) { end_op_waiter_ = &c; }

  /// Total cycles spent with busy() high across all completed operations
  /// (start_op -> end_op windows; an in-flight op counts on completion).
  /// Wrappers (ReconfigSlot) override to sum their candidates.
  [[nodiscard]] virtual u64 busy_cycles() const { return busy_cycles_; }

  /// Attach (or detach, nullptr) an event tracer. Each busy window is
  /// then emitted as one "op" span on a track named after the RAC.
  /// Virtual so wrappers (ReconfigSlot) can forward to their candidates,
  /// where the windows actually open.
  virtual void set_tracer(obs::EventTracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) track_ = tracer_->track("rac." + name());
  }

  /// Attach (or detach, nullptr) a fault hook. A firing hook swallows
  /// the end_op pulse: busy() may fall, but the op window stays open and
  /// hung() latches — the controller's exec-wait blocks on
  /// exec_pending() until a kCtrlRst soft reset. Hooks act on the RAC
  /// instance bound to the OCP (a ReconfigSlot wrapper's candidates emit
  /// their own pulses and are not intercepted).
  void set_fault_hook(fault::RacFaultHook* hook) { fault_hook_ = hook; }

  /// What the controller's exec-wait actually waits out: the RAC's busy
  /// window, extended by a swallowed end_op.
  [[nodiscard]] bool exec_pending() const { return busy() || hung_; }
  [[nodiscard]] bool hung() const { return hung_; }

  /// kCtrlRst (and slot preemption): discard whatever operation is open
  /// — a hung one whose end_op was swallowed, or one genuinely mid-block
  /// (the other stage of a faulted linked chain, a preempted slot) — and
  /// return to idle: busy() low, no pending output. The base part closes
  /// the open busy window at the reset cycle (so cycle attribution stays
  /// exact) and clears hung_. Subclasses with mid-op datapath state
  /// override and call it; the default covers stateless RACs.
  virtual void abort_op() {
    hung_ = false;
    if (op_open_) {
      const Cycle now = kernel().now();
      busy_cycles_ += now - op_begin_;
      if (tracer_ != nullptr) tracer_->complete(track_, "op", op_begin_, now);
      op_open_ = false;
    }
  }

 protected:
  /// The base-class op bookkeeping (open busy window, hang latch,
  /// busy-cycle total), listed first by every subclass's field list; the
  /// waiter, tracer, and fault hook are wiring and stay out of the stream.
  void state(snap::Fields& f) override {
    f.field("op_open", op_open_);
    f.field("hung", hung_);
    f.field("op_begin", op_begin_);
    f.field("rac_busy_cycles", busy_cycles_);
  }

  /// Subclasses call this wherever they raise busy() (start_op), after
  /// their argument validation — a rejected start opens no window.
  void note_start_op() {
    op_open_ = true;
    op_begin_ = kernel().now();
  }

  /// Subclasses call this wherever they drop busy() (end_op).
  void notify_end_op() {
    if (fault_hook_ != nullptr && fault_hook_->swallow_end_op(kernel().now())) {
      hung_ = true;  // pulse lost: window stays open, waiter not woken
      return;
    }
    if (op_open_) {
      const Cycle now = kernel().now();
      busy_cycles_ += now - op_begin_;
      if (tracer_ != nullptr) tracer_->complete(track_, "op", op_begin_, now);
      op_open_ = false;
    }
    if (end_op_waiter_ != nullptr) end_op_waiter_->wake();
  }

 private:
  sim::Component* end_op_waiter_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  fault::RacFaultHook* fault_hook_ = nullptr;
  obs::TrackId track_ = 0;
  bool op_open_ = false;
  bool hung_ = false;
  Cycle op_begin_ = 0;
  u64 busy_cycles_ = 0;
};

}  // namespace ouessant::core
