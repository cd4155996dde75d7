// The OCP bus interface (paper Fig. 3).
//
// Two halves, mirroring the paper's split:
//  * the bus-independent half: the 10 configuration registers (ctrl,
//    program size, 8 bank bases), the bank+offset -> physical address
//    translation, and the done/interrupt logic;
//  * the bus-dependent half: the slave FSM (this class implements
//    bus::BusSlave, so it plugs into any InterconnectModel — AHB or
//    AXI-Lite) and the master FSM (a bus::BusMasterPort owned by the
//    interconnect, driven by the controller).
#pragma once

#include <array>
#include <functional>
#include <string>

#include "bus/types.hpp"
#include "cpu/irq.hpp"
#include "sim/kernel.hpp"
#include "snap/state.hpp"
#include "ouessant/regs.hpp"
#include "res/estimate.hpp"

namespace ouessant::core {

class BusInterface : public bus::BusSlave, public res::ResourceAware {
 public:
  /// @p name for diagnostics; @p base is where the register block is
  /// decoded (the OCP maps [base, base+kRegSpanBytes)).
  BusInterface(std::string name, Addr base, bus::BusMasterPort& master);

  // -- bus::BusSlave (CPU-facing slave FSM) -----------------------------
  bus::SlaveResponse read_word(Addr addr) override;
  u32 write_word(Addr addr, u32 data) override;
  [[nodiscard]] std::string slave_name() const override { return name_; }

  // -- internal-addressing translation ----------------------------------
  /// Translate the controller's bank+offset into a physical bus address:
  /// "The interface selects the correct bank address in its configuration
  /// registers. It then adds the offset."
  [[nodiscard]] Addr translate(u8 bank, u32 word_offset) const;

  // -- standalone operation (paper future work: "Standalone operation is
  // also studied, to provide control for processor-free designs") -------
  /// Load the configuration registers at elaboration time (models
  /// strap/ROM-initialised defaults in a CPU-less design).
  void preconfigure(const std::array<u32, kNumBankRegs>& banks,
                    u32 prog_size);
  /// Arm the controller at reset without a CPU write. With
  /// @p auto_restart the program re-launches after every EOP (free-running
  /// streaming pipelines).
  void set_standalone(bool autostart, bool auto_restart);

  // -- controller-facing signals ----------------------------------------
  [[nodiscard]] bool start_pending() const {
    return start_pending_ || autostart_armed_;
  }
  /// Wake @p c whenever a start condition is armed (S bit written, or
  /// standalone autostart) — lets the controller gate its clock in idle.
  void wake_on_start(sim::Component& c) { start_waiter_ = &c; }
  void ack_start();                       ///< controller consumed S
  /// RST was written and the controller has not consumed it yet. The
  /// controller handles the reset at the top of its next tick (its
  /// start_waiter_ wake fires on the write, so a gated controller sees
  /// it immediately).
  [[nodiscard]] bool reset_pending() const { return reset_pending_; }
  void ack_reset() { reset_pending_ = false; }
  void set_running(bool running) { running_ = running; }
  [[nodiscard]] bool running() const { return running_; }
  void signal_done();                     ///< EOP: set D, raise IRQ if IE
  void signal_error();                    ///< microcode fault
  void signal_progress();                 ///< IRQ instruction: PROG bit

  [[nodiscard]] u32 prog_size() const { return prog_size_; }
  [[nodiscard]] bus::BusMasterPort& master() { return master_; }

  // -- chaining (docs/chaining.md) ----------------------------------------
  /// CHAIN control bit: while set, the bound ChainLink drains this OCP's
  /// output FIFO into the chained peer's input FIFO.
  [[nodiscard]] bool chain_enabled() const { return chain_; }
  /// Observe CHAIN-bit edges (the ChainLink registers here so a CSR
  /// write wakes a gated link the same cycle).
  void set_chain_listener(std::function<void(bool)> fn) {
    chain_listener_ = std::move(fn);
  }

  // -- host-visible status ------------------------------------------------
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] bool error() const { return error_; }
  [[nodiscard]] bool progress() const { return progress_; }
  [[nodiscard]] cpu::IrqLine& irq() { return irq_; }
  [[nodiscard]] Addr base() const { return base_; }

  // -- res::ResourceAware -------------------------------------------------
  [[nodiscard]] res::ResourceNode resource_tree() const override;

  // -- snapshot field list ------------------------------------------------
  // Not a sim::Component (the slave FSM has no clocked state of its
  // own); the controller lists these fields in its own section. The IRQ
  // line level is restored without notifying watchers.
  void state(snap::Fields& f);

 private:
  [[nodiscard]] u32 reg_index(Addr addr, const char* what) const;
  [[nodiscard]] u32 read_ctrl() const;
  void write_ctrl(u32 value);

  std::string name_;
  Addr base_;
  bus::BusMasterPort& master_;

  std::array<u32, kNumBankRegs> banks_{};
  u32 prog_size_ = 0;
  bool ie_ = false;
  bool start_pending_ = false;
  bool reset_pending_ = false;
  bool autostart_armed_ = false;
  bool auto_restart_ = false;
  bool running_ = false;
  bool chain_ = false;
  bool done_ = false;
  bool error_ = false;
  bool progress_ = false;
  cpu::IrqLine irq_;
  sim::Component* start_waiter_ = nullptr;
  std::function<void(bool)> chain_listener_;
};

}  // namespace ouessant::core
