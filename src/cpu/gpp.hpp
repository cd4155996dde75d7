// Timing-annotated general-purpose processor model (Leon3 class).
//
// The paper's platform CPU is a Leon3 (SPARCv8 soft core, in-order,
// single-issue). We model it at the level its results need: the CPU is a
// bus master whose driver code runs *on the host call stack*; every
// blocking action (MMIO access, compute time, wait-for-interrupt) advances
// the simulation kernel, so the OCP genuinely executes concurrently with
// CPU work — the paper's "the GPP can process other tasks" property falls
// out of the model rather than being asserted.
//
// Software kernels (the SW column of Table I) are *timing-annotated*: they
// compute functionally in C++ while a CostMeter charges Leon3-calibrated
// cycle costs per executed operation (see CpuCosts); the total is then
// spent on the simulated clock.
//
// Clock-gating audit: not a sim::Component — the Gpp drives the kernel
// from the host stack via Kernel::run / run_until, so it benefits from
// quiescence gating (wait_for_irq and spend() fast-forward through fully
// idle stretches) without needing an activity protocol of its own. Its
// done-predicates (port not busy, IRQ line raised) are pure functions of
// component state, as Kernel::run_until requires.
#pragma once

#include <memory>
#include <vector>

#include "bus/types.hpp"
#include "cpu/dcache.hpp"
#include "cpu/irq.hpp"
#include "sim/kernel.hpp"
#include "snap/state.hpp"

namespace ouessant::cpu {

/// Per-operation cycle costs, calibrated to a Leon3 without hardware FPU
/// (the common Artix7 configuration; floating point is software-emulated,
/// which is what makes the paper's software DFT cost ~600k cycles).
struct CpuCosts {
  u32 alu = 1;         ///< integer add/sub/logic/shift
  u32 mul = 5;         ///< integer multiply (Leon3 UMUL: 4-5 cycles)
  u32 div = 35;        ///< integer divide
  u32 load = 2;        ///< cached load
  u32 store = 2;       ///< cached store
  u32 branch = 2;      ///< taken branch / loop bookkeeping
  u32 call = 12;       ///< function call + return overhead
  u32 fadd = 50;       ///< soft-float double add/sub
  u32 fmul = 60;       ///< soft-float double multiply
  u32 fdiv = 160;      ///< soft-float double divide
};

/// Accumulates operation counts for a software kernel and converts them to
/// cycles under a CpuCosts model. Kept separate from Gpp so pure software
/// baselines can be costed without a live simulation.
class CostMeter {
 public:
  explicit CostMeter(const CpuCosts& costs) : c_(costs) {}

  void alu(u64 n = 1) { ops_alu_ += n; }
  void mul(u64 n = 1) { ops_mul_ += n; }
  void div(u64 n = 1) { ops_div_ += n; }
  void load(u64 n = 1) { ops_load_ += n; }
  void store(u64 n = 1) { ops_store_ += n; }
  void branch(u64 n = 1) { ops_branch_ += n; }
  void call(u64 n = 1) { ops_call_ += n; }
  void fadd(u64 n = 1) { ops_fadd_ += n; }
  void fmul(u64 n = 1) { ops_fmul_ += n; }
  void fdiv(u64 n = 1) { ops_fdiv_ += n; }

  [[nodiscard]] u64 cycles() const {
    return ops_alu_ * c_.alu + ops_mul_ * c_.mul + ops_div_ * c_.div +
           ops_load_ * c_.load + ops_store_ * c_.store +
           ops_branch_ * c_.branch + ops_call_ * c_.call +
           ops_fadd_ * c_.fadd + ops_fmul_ * c_.fmul + ops_fdiv_ * c_.fdiv;
  }

  [[nodiscard]] u64 total_ops() const {
    return ops_alu_ + ops_mul_ + ops_div_ + ops_load_ + ops_store_ +
           ops_branch_ + ops_call_ + ops_fadd_ + ops_fmul_ + ops_fdiv_;
  }

  [[nodiscard]] u64 float_ops() const { return ops_fadd_ + ops_fmul_ + ops_fdiv_; }

 private:
  CpuCosts c_;
  u64 ops_alu_ = 0, ops_mul_ = 0, ops_div_ = 0;
  u64 ops_load_ = 0, ops_store_ = 0, ops_branch_ = 0, ops_call_ = 0;
  u64 ops_fadd_ = 0, ops_fmul_ = 0, ops_fdiv_ = 0;
};

class Gpp {
 public:
  /// @p port must belong to a bus registered with @p kernel.
  Gpp(sim::Kernel& kernel, bus::BusMasterPort& port, CpuCosts costs = {});

  // -- MMIO / memory access through the bus (blocking, advances time) ---
  /// With a data cache enabled, cacheable reads hit in one cycle or fetch
  /// a whole line; MMIO regions always go straight to the bus.
  [[nodiscard]] u32 read32(Addr addr);
  void write32(Addr addr, u32 data);
  [[nodiscard]] std::vector<u32> read_burst(Addr addr, u32 words);
  void write_burst(Addr addr, std::vector<u32> data);

  // -- data cache (Leon3-style write-through, optional) -----------------
  /// Attach a direct-mapped write-through cache in front of cacheable
  /// memory. @p bus must be the interconnect this CPU's port belongs to
  /// (needed for snooping).
  void enable_dcache(bus::InterconnectModel& bus, DCacheConfig cfg = {});
  [[nodiscard]] DCache& dcache() {
    if (!dcache_) throw ConfigError("Gpp: no dcache enabled");
    return *dcache_;
  }

  // -- time ------------------------------------------------------------
  /// CPU is busy computing for @p cycles cycles (other components run).
  void spend(u64 cycles);
  /// Spend the accumulated cycles of a cost meter.
  void spend(const CostMeter& meter) { spend(meter.cycles()); }

  /// Sleep until @p irq is raised (models WFI). Counts as idle time.
  void wait_for_irq(const IrqLine& irq, u64 timeout = 10'000'000);

  [[nodiscard]] Cycle now() const;
  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] const CpuCosts& costs() const { return costs_; }
  [[nodiscard]] CostMeter meter() const { return CostMeter(costs_); }

  // -- accounting --------------------------------------------------------
  [[nodiscard]] u64 compute_cycles() const { return compute_cycles_; }
  [[nodiscard]] u64 bus_cycles() const { return bus_cycles_; }
  [[nodiscard]] u64 idle_cycles() const { return idle_cycles_; }

  // -- snapshot field list -----------------------------------------------
  // Not a sim::Component (the Gpp runs on the host call stack); the Soc
  // lists it in its own section. Saving is only legal between blocking
  // calls — i.e. when no driver code is mid-transaction.
  void state(snap::Fields& f);

 private:
  void run_transaction();

  sim::Kernel& kernel_;
  bus::BusMasterPort& port_;
  CpuCosts costs_;
  std::unique_ptr<DCache> dcache_;
  u64 compute_cycles_ = 0;
  u64 bus_cycles_ = 0;
  u64 idle_cycles_ = 0;
};

}  // namespace ouessant::cpu
