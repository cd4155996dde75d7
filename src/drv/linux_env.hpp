// Linux environment cost model (paper §IV).
//
// "Efficiently integrating Ouessant in a virtual-memory based environment
// such as Linux [...] The strong isolation between kernel and user modes
// and the high overhead induced by the kernel can quickly decrease
// performance." The paper's driver avoids per-word copies with mmap'd
// kernel buffers; the measured cost of the remaining kernel machinery is
// ~3000 cycles per invocation (DFT: 4000 cycles baremetal vs 7000 under
// Linux).
//
// LinuxEnv charges that machinery explicitly: syscall entry/exit, driver
// dispatch, interrupt-to-wakeup path — and, for the copy-based (non-mmap)
// driver variant, copy_from_user/copy_to_user per word, with the actual
// data movement performed between the "user" and "kernel DMA" regions of
// the simulated SRAM. Both variants of the paper's design discussion are
// therefore measurable (bench E3).
#pragma once

#include "drv/session.hpp"

namespace ouessant::drv {

/// Per-invocation kernel path costs in cycles, calibrated against the
/// paper's ~3000-cycle Linux overhead on a 50 MHz Leon3.
struct LinuxCosts {
  u32 user_lib = 150;         ///< user-space library wrapper
  u32 syscall_entry = 450;    ///< trap, mode switch, argument checks
  u32 driver_dispatch = 400;  ///< file-ops dispatch, request setup
  u32 irq_entry = 250;        ///< trap into the kernel on completion IRQ
  u32 irq_handler = 200;      ///< driver ISR: ack device, complete request
  u32 wakeup_schedule = 900;  ///< wake sleeping task, scheduler pass
  u32 syscall_exit = 350;     ///< return to user space
  u32 copy_user_per_word = 8; ///< copy_{from,to}_user, per 32-bit word

  [[nodiscard]] u32 fixed_overhead() const {
    return user_lib + syscall_entry + driver_dispatch + irq_entry +
           irq_handler + wakeup_schedule + syscall_exit;
  }
};

/// How application data reaches the DMA-able kernel buffer.
enum class XferMode {
  kMmap,      ///< paper's driver: user buffer IS the kernel buffer
  kCopyUser,  ///< naive driver: copy_from_user / copy_to_user each call
};

class LinuxEnv {
 public:
  explicit LinuxEnv(LinuxCosts costs = {}) : costs_(costs) {}

  /// Run one accelerated invocation of @p session under the Linux model.
  ///
  /// kMmap: the session's in/out banks are the mmap'd buffer; no copies.
  /// kCopyUser: @p user_in / @p user_out are the application buffers; the
  /// kernel copies them to/from the session's DMA banks, charged per word.
  ///
  /// Returns total cycles from syscall issue to return to user space.
  u64 invoke(OcpSession& session, XferMode mode, Addr user_in = 0,
             Addr user_out = 0);

  [[nodiscard]] const LinuxCosts& costs() const { return costs_; }

 private:
  LinuxCosts costs_;
};

}  // namespace ouessant::drv
