// Multi-source interrupt controller (IRQMP-lite) — the Leon3 platform's
// interrupt fabric, needed once several OCPs share one CPU (the MPSoC
// argument of §II-B): each peripheral keeps its own IrqLine, the
// controller aggregates them into one CPU line with level-sensitive
// pending/mask semantics.
//
// Register map (byte offsets):
//   0x00  PENDING  (R)    bit i = source i is asserting
//   0x04  MASK     (RW)   bit i enables source i
//   0x08  ACTIVE   (R)    PENDING & MASK (what is driving the CPU line)
#pragma once

#include <string>
#include <vector>

#include "bus/types.hpp"
#include "cpu/irq.hpp"
#include "fault/hooks.hpp"
#include "res/estimate.hpp"
#include "sim/kernel.hpp"

namespace ouessant::cpu {

inline constexpr Addr kIrqCtlPending = 0x00;
inline constexpr Addr kIrqCtlMask = 0x04;
inline constexpr Addr kIrqCtlActive = 0x08;
inline constexpr u32 kIrqCtlSpanBytes = 0x0C;
inline constexpr u32 kIrqCtlMaxSources = 16;

class IrqController : public sim::Component,
                      public bus::BusSlave,
                      public res::ResourceAware {
 public:
  IrqController(sim::Kernel& kernel, std::string name, Addr base);

  /// Attach a source line; returns its source index (bit position).
  /// Sources are level-sensitive: the pending bit follows the line, so
  /// acknowledgement happens at the peripheral (e.g. the OCP's W1C D
  /// bit), exactly like AMBA level interrupts.
  u32 attach(const IrqLine& line);
  [[nodiscard]] std::size_t source_count() const { return sources_.size(); }

  /// The aggregated output the CPU sleeps on.
  [[nodiscard]] IrqLine& cpu_line() { return cpu_line_; }

  // bus::BusSlave
  bus::SlaveResponse read_word(Addr addr) override;
  u32 write_word(Addr addr, u32 data) override;
  [[nodiscard]] std::string slave_name() const override { return name(); }

  // sim::Component — sample the source lines each cycle.
  void tick_compute() override;
  /// Quiescent while the registered pending/output state already matches
  /// the source lines: re-sampling would change nothing. Any watched
  /// line edge or a MASK write wakes us.
  [[nodiscard]] bool is_quiescent() const override;
  /// Registered pending/mask/suppression state plus the aggregated CPU
  /// line level (restored without notifying watchers). Source lines
  /// belong to the peripherals that own them.
  void state(snap::Fields& f) override;

  [[nodiscard]] u32 pending() const { return pending_; }
  [[nodiscard]] u32 mask() const { return mask_; }

  /// Attach (or detach, nullptr) a fault hook, consulted once per
  /// observed rising edge of a source line. A firing hook suppresses
  /// the source until its line falls — the pending bit never sets, so
  /// the CPU misses the interrupt (lost-IRQ fault; the driver's
  /// timeout-then-poll path recovers). One branch per tick when
  /// unarmed.
  void set_fault_hook(fault::IrqFaultHook* hook) { fault_hook_ = hook; }

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  /// Raw sampled source state -> effective pending, consuming hook
  /// decisions for unseen rising edges (tick path only — is_quiescent
  /// must not draw from the hook's RNG).
  [[nodiscard]] u32 sample_sources() const;

  Addr base_;
  std::vector<const IrqLine*> sources_;
  u32 pending_ = 0;
  u32 mask_ = 0;
  fault::IrqFaultHook* fault_hook_ = nullptr;
  u32 prev_raw_ = 0;    ///< last raw sample (hook armed only)
  u32 suppressed_ = 0;  ///< sources dropped until their line falls
  IrqLine cpu_line_;
};

}  // namespace ouessant::cpu
