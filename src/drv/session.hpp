// OcpSession: one configured OCP invocation context — the memory layout
// (program bank, input bank, output bank), the installed microcode, and
// the start/wait sequences. This is the baremetal flavour of the paper's
// "software integration": the application configures the Ouessant
// (pointers to arrays), launches the computation and waits for results.
#pragma once

#include "drv/ocp_driver.hpp"
#include "obs/tracer.hpp"
#include "ouessant/ocp.hpp"

namespace ouessant::drv {

struct SessionLayout {
  Addr prog_base = 0;   ///< where the microcode image lives (bank 0)
  Addr in_base = 0;     ///< input data (bank 1)
  Addr out_base = 0;    ///< output data (bank 2)
  u32 in_words = 0;
  u32 out_words = 0;
};

class OcpSession {
 public:
  OcpSession(cpu::Gpp& gpp, mem::Sram& mem, core::Ocp& ocp,
             SessionLayout layout);

  /// Verify @p prog, write it into memory, and configure banks 0..2 and
  /// the program size — all through timed CPU bus accesses (or the memory
  /// backdoor for the program image when @p timed_program is false).
  void install(const core::Program& prog, bool timed_program = true);

  // Host-side data staging (backdoor; applications own their buffers).
  void put_input(const std::vector<u32>& words);
  [[nodiscard]] std::vector<u32> get_output() const;

  /// Start and poll for completion. Returns cycles from start to
  /// acknowledged completion. ERR or no completion within @p timeout
  /// throws the driver's SimError, which names the OCP and the deadline;
  /// the controller's last_fault() backdoor says why.
  u64 run_poll(u64 poll_gap = 16, u64 timeout = kDefaultDriverTimeout);

  /// Start and sleep on the interrupt. Returns cycles elapsed; throws
  /// like run_poll.
  u64 run_irq(u64 timeout = kDefaultDriverTimeout);

  /// Start only (the CPU is free afterwards — the paper's "the GPP can
  /// process other tasks" mode). Pair with driver().wait_done_irq().
  void start_async();

  /// Clear a latched ERR (if any) and pulse kCtrlRst; afterwards the OCP
  /// is idle with banks and program intact, ready for a retry launch.
  /// Both service backends call it; after a run_* SimError, so may a
  /// caller that wants the OCP back.
  void recover();

  [[nodiscard]] OcpDriver& driver() { return drv_; }
  [[nodiscard]] const OcpDriver& driver() const { return drv_; }
  [[nodiscard]] const SessionLayout& layout() const { return layout_; }
  [[nodiscard]] mem::Sram& memory() { return mem_; }
  [[nodiscard]] core::Ocp& ocp() const { return ocp_; }

  /// Attach (or detach, nullptr) an event tracer. install/run_poll/
  /// run_irq become spans on a track "drv.<ocp name>"; start_async an
  /// instant (the CPU leaves immediately — there is nothing to span).
  void set_tracer(obs::EventTracer* tracer);

 private:
  cpu::Gpp& gpp_;
  mem::Sram& mem_;
  core::Ocp& ocp_;
  SessionLayout layout_;
  OcpDriver drv_;
  obs::EventTracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
};

}  // namespace ouessant::drv
