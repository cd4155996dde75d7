// The Injector: evaluates a FaultPlan against a live SoC.
//
// One Injector serves one simulation (a service run or a hand-built
// test SoC). arm_*() installs the hooks; after that every injection
// opportunity — a bus beat issued by an OCP master, a RAC end_op, a
// fetched microcode word, an output-FIFO drain, an IRQ rising edge —
// flows through decide(), which walks the plan's specs in order and
// fires the first eligible one. Probability specs draw from a per-spec
// xoshiro stream seeded from the plan seed, so the schedule is a pure
// function of (plan, workload): two runs with the same seed are
// bit-identical, and the injection log() lets tests assert that.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cpu/irq_controller.hpp"
#include "fault/hooks.hpp"
#include "fault/plan.hpp"
#include "ouessant/ocp.hpp"
#include "snap/state.hpp"
#include "util/rng.hpp"

namespace ouessant::fault {

class Injector : public BusFaultHook, public IrqFaultHook {
 public:
  explicit Injector(FaultPlan plan);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// Route injected bus errors: beats mastered by an armed OCP's port
  /// may ERROR; other masters (the CPU, DMA engines) are never targeted.
  void arm_bus(bus::InterconnectModel& bus);

  /// Arm @p ocp's controller (ctrl_flip + fifo_corrupt), RAC (rac_hang)
  /// and master port (bus_err), addressable as ocp=@p index in specs.
  void arm_ocp(u32 index, core::Ocp& ocp);

  /// Arm IRQ-edge suppression. Source index i at @p ctl is matched
  /// against ocp=i in irq_drop specs (the dispatcher attaches worker
  /// i's line as source i; standalone tests follow the same order).
  void arm_irq(cpu::IrqController& ctl);

  /// One entry per injected fault, in firing order.
  struct Record {
    Cycle cycle = 0;
    FaultKind kind = FaultKind::kBusError;
    int ocp = -1;       ///< resolved target index (-1: unmatched master)
    u32 spec_index = 0; ///< which plan spec fired
  };
  [[nodiscard]] const std::vector<Record>& log() const { return log_; }
  [[nodiscard]] u64 injected() const { return log_.size(); }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // -- snapshot field list ----------------------------------------------
  // Host-stack object; the service embedding it lists it. The
  // plan itself is configuration: the target injector must be built from
  // the same plan (spec count is validated). Per-spec fired counts and
  // RNG stream positions plus the log make a restored run fire the
  // remaining faults exactly where the uninterrupted one would.
  void state(snap::Fields& f);

  // -- BusFaultHook -----------------------------------------------------
  bool beat_error(const std::string& master, Addr addr, bool write,
                  Cycle now) override;

  // -- IrqFaultHook -----------------------------------------------------
  bool drop_assertion(u32 src, Cycle now) override;

 private:
  friend struct OcpSite;
  friend struct RacSite;

  /// Walk the specs for @p kind matching @p target; fire the first
  /// eligible one (schedule reached, or Bernoulli draw hits) and log it.
  const FaultSpec* decide(FaultKind kind, int target, Cycle now);

  struct SpecState {
    u64 fired = 0;
    util::Rng rng;
  };

  FaultPlan plan_;
  std::vector<SpecState> state_;  // parallel to plan_.specs
  std::vector<Record> log_;
  std::vector<std::string> master_names_;  // index = armed OCP index
  std::vector<std::unique_ptr<OcpFaultHook>> ocp_sites_;
  std::vector<std::unique_ptr<RacFaultHook>> rac_sites_;
};

}  // namespace ouessant::fault
