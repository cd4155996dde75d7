// svc::Backend: the one contract between the Dispatcher and a worker's
// hardware. The paper's claim is that a small fixed contract (bank
// registers, 4-instruction microcode, FIFO-facing RACs) integrates any
// coprocessor; this is the service-level counterpart. The Dispatcher
// owns queueing, batching, retry/watchdog/quarantine and slot direction
// and reaches the hardware only through these calls, so a new kind of
// worker is one more class here, not another set of dispatcher branches.
//
// Two implementations:
//  - OcpBackend: one OCP behind a drv::OcpSession — static workers and
//    reconfigurable-slot workers alike (retargeting is scheduling state
//    and stays in the Dispatcher).
//  - ChainBackend: a two-stage drv::ChainSession. It owns both IRQ
//    sources and the store-and-forward head-interrupt relay, so the
//    Dispatcher sees one completion per batch in both chain modes.
//
// Every method that touches a register is a timed bus access issued by
// the CPU; their order is part of the simulated timing the goldens pin.
#pragma once

#include "cpu/irq_controller.hpp"
#include "drv/chain.hpp"
#include "drv/session.hpp"

namespace ouessant::svc {

/// What one Backend::poll() found.
enum class PollResult : u8 {
  kIdle,      ///< none of the worker's sources pending (no bus access)
  kSpurious,  ///< pending, but CTRL shows no D (the level raced an ack)
  kAdvanced,  ///< store-and-forward head done, tail stage launched
  kDone,      ///< batch complete, every stage acknowledged
  kError,     ///< ERR latched (fault-aware polls only), nothing acked
};

/// What the watchdog's CTRL read of the executing stage found, decided
/// in this order: D first, then ERR.
enum class Stall : u8 {
  kLostIrq,  ///< D set: the work finished but its interrupt edge was lost
  kError,    ///< ERR latched
  kHung,     ///< neither: still running (or its end_op was swallowed)
};

class Backend {
 public:
  Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;
  virtual ~Backend() = default;

  /// Staging windows: batch slot j's input block sits at
  /// in_base() + j*block*4, its output block at out_base() + j*block*4.
  [[nodiscard]] virtual Addr in_base() const = 0;
  [[nodiscard]] virtual Addr out_base() const = 0;

  /// Timed install of the v2-loop program(s) serving @p batch blocks.
  /// Returns the number of program images written (one per stage).
  virtual u32 install(u32 batch) = 0;
  /// Launch the installed batch without waiting.
  virtual void start() = 0;
  /// Timed IE writes for every stage that interrupts the CPU; returns
  /// the IrqController mask bits of those sources.
  virtual u32 enable_irqs() = 0;

  /// Serve this worker's share of @p pending (the IrqController PENDING
  /// word): one timed CTRL read of the pending stage, then its
  /// acknowledgement. ERR is only reported when @p fault_aware; otherwise
  /// it stays invisible, as on the unarmed fast path.
  virtual PollResult poll(u32 pending, bool fault_aware) = 0;
  /// Watchdog expiry: one timed CTRL read of the executing stage.
  /// Nothing is acknowledged; a kLostIrq is then served through poll(),
  /// which reads CTRL again.
  [[nodiscard]] Stall diagnose();
  /// The executing stage's controller explains a fault: the fault it
  /// latched (empty if none) and its program counter.
  [[nodiscard]] FaultInfo last_fault() {
    return executing().ocp().controller().last_fault();
  }
  [[nodiscard]] u32 pc() { return executing().ocp().controller().pc(); }
  /// Name of the OCP whose completion retires a batch (trace tracks,
  /// error messages, flight-recorder triggers).
  [[nodiscard]] virtual const std::string& name() const = 0;
  /// Timed recovery: ERR acknowledge + RST pulse + settle, every stage.
  /// Resident programs survive.
  virtual void recover() = 0;

  virtual void set_tracer(obs::EventTracer* tracer) = 0;
  /// Driver shadows (and chain stage), inside the Dispatcher's section.
  virtual void state(snap::Fields& f) = 0;

 protected:
  /// The stage currently executing: a chain's head during its
  /// store-and-forward head stage, otherwise the OCP that retires.
  [[nodiscard]] virtual drv::OcpSession& executing() = 0;
};

class OcpBackend final : public Backend {
 public:
  /// Attaches @p ocp's IRQ line to @p irq_ctl. Each batch block is
  /// @p block_words words in and out.
  OcpBackend(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& ocp,
             drv::SessionLayout layout, u32 block_words,
             cpu::IrqController& irq_ctl);

  [[nodiscard]] Addr in_base() const override {
    return session_.layout().in_base;
  }
  [[nodiscard]] Addr out_base() const override {
    return session_.layout().out_base;
  }
  u32 install(u32 batch) override;
  void start() override { session_.start_async(); }
  u32 enable_irqs() override;
  PollResult poll(u32 pending, bool fault_aware) override;
  [[nodiscard]] const std::string& name() const override {
    return session_.ocp().name();
  }
  void recover() override { session_.recover(); }
  void set_tracer(obs::EventTracer* tracer) override {
    session_.set_tracer(tracer);
  }
  void state(snap::Fields& f) override { session_.driver().state(f); }

 private:
  [[nodiscard]] drv::OcpSession& executing() override { return session_; }

  drv::OcpSession session_;
  u32 block_words_;
  u32 irq_source_;
};

class ChainBackend final : public Backend {
 public:
  /// Attaches the tail's IRQ line, then the head's, to @p irq_ctl.
  ChainBackend(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& head,
               core::Ocp& tail, fifo::ChainLink& link, drv::ChainLayout layout,
               drv::ChainMode mode, cpu::IrqController& irq_ctl);

  [[nodiscard]] Addr in_base() const override {
    return chain_.layout().in_base;
  }
  [[nodiscard]] Addr out_base() const override {
    return chain_.layout().out_base;
  }
  u32 install(u32 batch) override;
  void start() override { chain_.start_async(); }
  u32 enable_irqs() override;
  PollResult poll(u32 pending, bool fault_aware) override;
  [[nodiscard]] const std::string& name() const override {
    return chain_.tail().ocp().name();
  }
  void recover() override { chain_.recover(); }
  void set_tracer(obs::EventTracer* tracer) override {
    chain_.set_tracer(tracer);
  }
  void state(snap::Fields& f) override { chain_.state(f); }

 private:
  [[nodiscard]] drv::OcpSession& executing() override {
    return chain_.awaiting_tail() ? chain_.head() : chain_.tail();
  }

  drv::ChainSession chain_;
  u32 tail_source_;
  u32 head_source_;
};

}  // namespace ouessant::svc
