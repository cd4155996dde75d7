// Baremetal OCP driver (paper §IV): the register-level programming
// sequence a baremetal application (or the kernel half of the Linux
// driver) performs. Every access here is a real, timed bus transaction
// issued by the Gpp.
#pragma once

#include <string>

#include "cpu/gpp.hpp"
#include "cpu/irq.hpp"
#include "mem/sram.hpp"
#include "ouessant/program.hpp"
#include "ouessant/regs.hpp"
#include "snap/state.hpp"

namespace ouessant::drv {

/// Default completion deadline for the wait helpers, in cycles. Callers
/// with real-time budgets pass their own; the value always travels into
/// the timeout SimError so logs show which deadline actually expired.
inline constexpr u64 kDefaultDriverTimeout = 10'000'000;

class OcpDriver : public snap::Stateful<OcpDriver> {
 public:
  /// @p reg_base: where the OCP's 10 registers are mapped. @p name tags
  /// every SimError this driver throws (one CPU typically runs several
  /// OCP drivers — "which coprocessor timed out" must not be a guess).
  OcpDriver(cpu::Gpp& gpp, Addr reg_base, cpu::IrqLine& irq,
            std::string name = "ocp");

  // -- configuration -----------------------------------------------------
  /// Program bank register @p n with physical base @p phys.
  void set_bank(u32 n, Addr phys);

  /// Write @p prog into memory at @p prog_base (word by word over the
  /// bus), point bank 0 at it and set the program-size register.
  void install_program(Addr prog_base, const core::Program& prog);

  /// Same, but through the memory backdoor (untimed) — models a program
  /// image already resident, e.g. loaded at boot.
  void install_program_backdoor(mem::Sram& mem, Addr prog_base,
                                const core::Program& prog);

  void enable_irq(bool on);
  [[nodiscard]] bool ie_shadow() const { return ie_; }

  /// Set or clear the CHAIN control bit (docs/chaining.md). Like IE it
  /// is level-sensitive and re-derived on every control write, so the
  /// driver shadows it and ORs it into each subsequent CTRL access.
  void enable_chain(bool on);
  [[nodiscard]] bool chain_shadow() const { return chain_; }

  // -- execution -----------------------------------------------------------
  /// Set the S bit (preserving IE).
  void start();

  [[nodiscard]] u32 read_ctrl();
  [[nodiscard]] bool done_bit_set();

  /// Acknowledge completion: clear D (and the interrupt line with it).
  void clear_done();

  /// Acknowledge a fault: clear ERR (W1C). The faulting program's state
  /// is NOT undone — pair with soft_reset() before retrying.
  void clear_error();

  /// Busy-wait on the D bit with MMIO reads every @p poll_gap cycles,
  /// then acknowledge. Returns polls performed. Throws SimError, naming
  /// this OCP, when ERR is observed (left set for recovery to clear) or
  /// no completion arrives within @p timeout.
  u32 wait_done_poll(u64 poll_gap = 16, u64 timeout = kDefaultDriverTimeout);

  /// Sleep until the OCP interrupt fires, then acknowledge. Throws
  /// SimError on ERR or when no interrupt arrives within @p timeout.
  void wait_done_irq(u64 timeout = kDefaultDriverTimeout);

  /// Pulse RST and poll until every status bit (BUSY/DONE/ERR/PROG) reads
  /// zero. The reset itself takes effect on the controller's next tick;
  /// @p settle bounds the wait (SimError past it — a stuck reset is a
  /// model bug, not a recoverable fault).
  void soft_reset(u64 settle = 10'000);

  [[nodiscard]] cpu::Gpp& gpp() { return gpp_; }
  [[nodiscard]] Addr reg_base() const { return base_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // -- snapshot field list -------------------------------------------------
  // Host-stack object (not a sim::Component): the session/service layer
  // lists it. The driver's only mutable state is its IE/CHAIN shadow.
  void state(snap::Fields& f);

 private:
  cpu::Gpp& gpp_;
  Addr base_;
  cpu::IrqLine& irq_;
  std::string name_;
  /// Every CTRL write is composed as `bits | shadow()` so the
  /// level-sensitive IE and CHAIN bits survive W1C acknowledgements.
  [[nodiscard]] u32 shadow() const;
  bool ie_ = false;
  bool chain_ = false;
};

}  // namespace ouessant::drv
