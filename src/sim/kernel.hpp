// Cycle-driven simulation kernel.
//
// The whole SoC runs on one clock domain (the paper's system runs at a
// single 50 MHz system clock). Every hardware block is a Component
// registered with the Kernel; Kernel::tick() advances one clock cycle by
// running the two tick phases over all components:
//
//   tickCompute(): combinational + sampling phase. Components read the
//     *registered* (committed) state of other components and decide their
//     next state. No externally visible state may change here.
//   tickCommit(): the clock edge. Components update their registered
//     outputs. After this phase all components see each other's new state.
//
// This two-phase scheme makes same-cycle interactions (e.g. one block
// pushing into a FIFO while another pops) independent of registration
// order, which keeps the model deterministic and order-insensitive.
//
// Quiescence / clock gating
// -------------------------
// Most blocks are idle most of the wall-clock (a RAC in its compute
// latency, a drained FIFO, a WFI'd CPU). A component may declare itself
// quiescent — both tick phases are provable no-ops in its current state —
// and the kernel then skips it until something wakes it:
//
//   * is_quiescent(): polled after every cycle for awake components; a
//     true return gates the component's clock.
//   * wake(): called by whoever changes state the sleeper polls (a FIFO
//     write, a bus transaction start, an IRQ edge). Takes effect
//     immediately: a component whose sweep slot has not yet been reached
//     this cycle still ticks this cycle, one whose slot has passed ticks
//     next cycle — exactly the visibility the seed's full sweep had.
//   * wake_at(cycle): self-service timer for countdowns with a known end
//     (RAC latency, ICAP reconfiguration, compute timers).
//
// The kernel mirrors every awake flag in a bitset indexed by registration
// slot. Both tick phases and the quiescence poll walk only its set bits,
// in slot order, re-reading the current 64-bit word after every call (so
// wake() keeps the visibility above), and a ticked cycle costs
// O(words + awake components), not O(registered). Slots are renumbered
// in one place: on a removal and after restore_from().
//
// The registry is fixed while the kernel ticks, as the blocks of a
// synthesized SoC are: constructing a Component during tick() (in either
// phase or in a sampler it calls) throws SimError, destroying one there
// aborts. Between ticks both are free.
//
// When every component is asleep the kernel fast-forwards cycle_ in bulk
// to the next wake-heap entry (or run target), invoking samplers for each
// skipped cycle so traces stay bit-identical. Gating is a pure scheduling
// optimization: cycle counts, statistics and memory contents are
// bit-identical to the ungated sweep (set_gating(false) keeps the seed's
// tick-everything loop for differential testing). See DESIGN.md §5 for
// the invariants a gateable component must keep.
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::snap {
class Snapshot;
}  // namespace ouessant::snap

namespace ouessant::sim {

class Kernel;

/// Base class for every clocked hardware block in the simulation.
class Component : public snap::Stateful<Component> {
 public:
  Component(Kernel& kernel, std::string name);
  virtual ~Component();

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Phase 1: compute next state from the committed state of the system.
  virtual void tick_compute() {}
  /// Phase 2: clock edge — commit the next state.
  virtual void tick_commit() {}

  /// True when both tick phases are no-ops in the current state AND the
  /// state can only change through external calls that wake() this
  /// component (or a wake_at() timer already armed). Default: never —
  /// components that do not opt in are ticked every cycle, exactly like
  /// the seed kernel.
  [[nodiscard]] virtual bool is_quiescent() const { return false; }

  /// Un-gate this component. Idempotent; callable from any phase, from
  /// host code between ticks, or from another component's tick.
  void wake();

  /// Arm a wake-up at absolute @p cycle (and wake immediately if the
  /// cycle is not in the future). The timer is one-shot; spurious extra
  /// wake-ups are harmless by the quiescence contract.
  void wake_at(Cycle cycle);

  /// This component's architectural state (everything a tick reads or
  /// writes) as one field list in wire order; the kernel runs it to
  /// write and to read the component's "c:<name>" section. The default
  /// lists nothing — correct only for genuinely stateless components.
  /// Restoring a saved stream into an identically-configured component
  /// must make subsequent simulation bit-identical to the original run.
  /// Restores happen between ticks on a freshly constructed (same
  /// config) component; wiring (pointers, waiter lists) comes from
  /// construction, not from the stream, and the schedule (awake flag,
  /// wake timers) from the kernel's own section, so a list never wakes
  /// its component. Host-side telemetry (tracers, samplers, scheduler
  /// stats) is deliberately outside the protocol.
  virtual void state(snap::Fields&) {}

  /// True while the kernel clocks this component (diagnostics).
  [[nodiscard]] bool awake() const { return awake_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Kernel& kernel() const { return kernel_; }

 private:
  friend class Kernel;
  Kernel& kernel_;
  std::string name_;
  bool awake_ = true;
  u32 slot_ = 0;  // index in Kernel::components_ once it joins
};

/// Scheduler telemetry (not part of the simulated state — these differ
/// between gated and ungated runs and are therefore kept out of Stats).
struct SchedulerStats {
  u64 ticks = 0;                 ///< cycles advanced by a full tick()
  u64 fast_forwards = 0;         ///< bulk idle jumps taken
  u64 fast_forward_cycles = 0;   ///< cycles advanced by those jumps
  u64 wakeups = 0;               ///< sleep -> awake transitions
  u64 sleeps = 0;                ///< awake -> sleep transitions
};

/// The clock and component registry.
class Kernel {
 public:
  Kernel() = default;

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Advance one clock cycle.
  void tick();

  /// Advance @p n clock cycles.
  void run(u64 n);

  /// Advance until @p done returns true, or throw SimError after
  /// @p timeout cycles (deadlock guard for tests and drivers).
  ///
  /// Ordering contract (pinned by tests/test_kernel_gating.cpp):
  ///   1. done() is evaluated first, before any tick and before the
  ///      timeout check — if it already holds on entry, run_until()
  ///      returns without ticking, even with timeout == 0.
  ///   2. The timeout throws only once `timeout` ticks have elapsed with
  ///      done() still false; the final allowed tick is the timeout-th,
  ///      and done() is re-evaluated after it before throwing.
  ///   3. On throw, now() == entry cycle + timeout.
  /// @p done must be a pure function of simulated component state (not of
  /// now() directly): with gating enabled, cycles where no component is
  /// awake are skipped in bulk and done() is not re-evaluated during the
  /// skip — which is sound precisely because no component state can
  /// change while nothing is clocked.
  void run_until(const std::function<bool()>& done, u64 timeout = 10'000'000);

  [[nodiscard]] Cycle now() const { return cycle_; }

  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Register a callback sampled after every commit phase (used by the
  /// trace writer). Returns an id usable with remove_sampler().
  u64 add_sampler(std::function<void(Cycle)> fn);
  void remove_sampler(u64 id);

  /// True while any sampler is registered. Samplers observe component
  /// state on every cycle, so event-batching optimizations (the
  /// interconnect's burst windows) must fall back to per-cycle ticking
  /// whenever one is attached.
  [[nodiscard]] bool has_samplers() const { return !samplers_.empty(); }

  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }

  /// Quiescence scheduling on/off. Off reproduces the seed kernel's
  /// tick-everything loop (every registered component, every cycle) —
  /// kept for differential determinism tests. Default: on.
  void set_gating(bool on);
  [[nodiscard]] bool gating() const { return gating_enabled_; }

  /// Number of components the next tick will clock (diagnostics).
  [[nodiscard]] std::size_t awake_count() const;

  /// Names of the currently awake components (diagnostics: "who is
  /// keeping the clock tree on?").
  [[nodiscard]] std::vector<std::string> awake_names() const;

  [[nodiscard]] const SchedulerStats& sched_stats() const { return sched_; }

  /// Write the kernel's own state (clock, Stats, per-component awake
  /// flags, armed wake timers) plus one "c:<name>" section per
  /// registered component into @p snap. Requires unique component names
  /// and may only run between ticks.
  void save_to(snap::Snapshot& snap) const;

  /// Restore a snapshot taken by save_to() into this kernel, whose
  /// registered components must match the snapshot by name (same stack
  /// construction). Resets the clock, Stats, awake flags and wake heap
  /// to the saved instant; scheduler telemetry restarts from zero.
  void restore_from(const snap::Snapshot& snap);

 private:
  friend class Component;
  /// Register @p c; throws SimError during a tick.
  void add(Component* c);
  /// Unregister @p c and drop its wake timers; aborts during a tick.
  void remove(Component* c);
  void wake(Component* c);
  void wake_at(Component* c, Cycle cycle);

  void release_due_wakes();
  [[nodiscard]] Cycle next_wake_cycle() const;
  void advance_idle(Cycle to);
  /// The idle skip of run() and run_until(): with gating on and nothing
  /// awake, fast-forward to the next wake or @p limit. False when it did
  /// not move the clock (the caller ticks instead).
  bool skip_idle(Cycle limit);
  void reindex();
  /// Registered components sorted by name, as views of the names they
  /// hold: the table save_to() and restore_from() key on. A duplicate
  /// name throws SnapshotError "<who>: duplicate component name
  /// '<name>'<why>".
  [[nodiscard]] std::vector<std::pair<std::string_view, Component*>>
  name_table(const char* who, const char* why) const;
  [[nodiscard]] bool any_awake() const {
    for (const u64 w : awake_bits_) {
      if (w != 0) return true;
    }
    return false;
  }
  template <class F>
  void for_each_awake(F f);
  void sleep_pass();

  Cycle cycle_ = 0;
  std::vector<Component*> components_;
  std::vector<std::pair<u64, std::function<void(Cycle)>>> samplers_;
  u64 next_sampler_id_ = 1;
  Stats stats_;

  // True while tick() runs its phases and samplers: add() and remove()
  // refuse, so the sweep never sees the registry change under it.
  bool in_tick_ = false;

  // Quiescence scheduling. Bit i of awake_bits_ mirrors
  // components_[i]->awake_; reindex() renumbers slots and rebuilds the
  // set from the flags. The wake heap only holds registered components.
  bool gating_enabled_ = true;
  std::vector<u64> awake_bits_;
  std::vector<std::pair<Cycle, Component*>> wake_heap_;  // min-heap
  SchedulerStats sched_;
};

inline void Component::wake() {
  if (!awake_) kernel_.wake(this);  // the common case stays a flag test
}
inline void Component::wake_at(Cycle cycle) { kernel_.wake_at(this, cycle); }

}  // namespace ouessant::sim
