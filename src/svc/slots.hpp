// The reconfigurable slot farm: demand-driven swap scheduling over a set
// of DPR regions (docs/reconfiguration.md, DESIGN.md §14).
//
// A "slot" pairs one OCP worker with a core::ReconfigSlot hosting K
// candidate RACs — one per JobKind the slot can serve. The SlotManager
// watches the Dispatcher's queue-depth-per-kind demand signal and, when
// the mix shifts, retargets a slot: quiesce (preempt a busy worker, its
// batch goes back to the queue head), gate the worker, stream the new
// partial bitstream through the shared dpr::IcapPort, and on completion
// point the worker at the new kind. Policies:
//
//   * kStatic          — never swap (the ablation baseline: the farm
//                        behaves like fixed workers at its initial mix).
//   * kGreedyQueueDepth — swap whenever another candidate kind's queued
//                        jobs-per-server exceeds the resident kind's
//                        (marginal-gain test, integer cross-multiplied).
//   * kHysteresis      — greedy gated by a minimum residency (no slot
//                        thrash) and a demand margin (the challenger must
//                        dominate by switch_margin unless the resident
//                        kind's queue is empty).
//
// The SlotManager is a sim::Component only as a *doorbell*: a swap
// decision deferred by the residency guard arms wake_at, and the tick
// raises the Dispatcher's slots_due flag when it matures — otherwise a
// quiescent system would sleep straight past the matured decision. All
// actual swap work runs on the host stack (direct(), called from
// service_once) or inside the IcapPort's completion callback.
#pragma once

#include <string>
#include <vector>

#include "dpr/icap.hpp"
#include "dpr/store.hpp"
#include "ouessant/dpr.hpp"
#include "svc/dispatcher.hpp"

namespace ouessant::svc {

enum class SwapPolicy : u8 {
  kStatic = 0,
  kGreedyQueueDepth,
  kHysteresis,
};

/// ConfigError on an unknown name ("static", "greedy", "hysteresis").
[[nodiscard]] SwapPolicy policy_from_name(const std::string& name);

/// Farm shape, embedded in ServiceConfig. enabled() == false (the
/// default) leaves the service bit-identical to the pre-farm stack.
struct SlotFarmConfig {
  u32 count = 0;  ///< number of reconfigurable slots (0 = no farm)
  /// Candidate kinds every slot carries a bitstream for.
  std::vector<JobKind> candidates = {JobKind::kIdct, JobKind::kDft,
                                     JobKind::kFir, JobKind::kJpegBlock};
  /// Initial kind per slot (empty: round-robin over candidates).
  std::vector<JobKind> initial;
  u32 max_batch = 4;  ///< dispatcher batch bound for slot workers
  SwapPolicy policy = SwapPolicy::kStatic;
  double switch_margin = 2.0;   ///< kHysteresis: challenger demand factor
  bool shared_icap = true;      ///< false: a free port, no bus (ablation)
  dpr::IcapConfig icap{};
  u32 icap_burst_words = 64;    ///< bus read burst per ICAP chunk
  u32 cache_bytes = 0;          ///< bitstream staging cache (0 = none)

  [[nodiscard]] bool enabled() const { return count > 0; }
};

class SlotManager : public sim::Component, public SlotDirector {
 public:
  SlotManager(sim::Kernel& kernel, std::string name, Dispatcher& dispatcher,
              dpr::IcapPort& icap, const dpr::BitstreamStore& store,
              dpr::BitstreamCache* cache, const SlotFarmConfig& cfg);

  /// Register one slot: @p region hosts candidates in the order of
  /// @p kinds; @p images[j] is the BitstreamStore id of candidate j's
  /// partial bitstream; @p worker is the Dispatcher index of the OCP the
  /// region lives in (marked retargetable here). The worker's current
  /// kind must be kinds[region.active_index()].
  void add_slot(core::ReconfigSlot& region, u32 worker,
                std::vector<JobKind> kinds, std::vector<u32> images);

  /// True when some slot lists @p kind among its candidates — i.e. a
  /// bitstream for it exists, whatever the policy. OffloadService
  /// accepts a workload kind on this basis; whether the jobs are
  /// *served* is then the policy's problem (serves(), below).
  [[nodiscard]] bool candidate(JobKind kind) const;

  // -- SlotDirector -----------------------------------------------------
  void direct() override;
  [[nodiscard]] bool swap_in_flight() const override;
  /// True when some slot (resident or after a swap) can serve @p kind.
  /// Under kStatic only resident kinds count — the farm never swaps, and
  /// the Dispatcher refuses jobs for unprovisioned kinds at submission.
  [[nodiscard]] bool serves(JobKind kind) const override;

  // -- run counters (report) ---------------------------------------------
  [[nodiscard]] u64 swaps_started() const { return swaps_started_; }
  [[nodiscard]] u64 swaps_completed() const { return swaps_completed_; }
  [[nodiscard]] u64 preemptions() const { return preemptions_; }
  [[nodiscard]] u64 preempted_jobs() const { return preempted_jobs_; }

  /// Warm-boot: zero the swap/preemption counters, re-anchor every
  /// slot's residency clock at now, reset the cache's hit/miss counters
  /// (staged images stay — they are the warm state worth cloning).
  void reset_run_counters();

  // sim::Component (the deferred-decision doorbell).
  void tick_commit() override;
  [[nodiscard]] bool is_quiescent() const override { return true; }
  /// Per-slot scheduler state (residency anchor, in-flight swap target)
  /// plus the counters and the staging cache. The regions, the ICAP port
  /// and the gated workers carry their own state.
  void state(snap::Fields& f) override;

 private:
  struct SlotState {
    core::ReconfigSlot* region = nullptr;
    u32 worker = 0;
    std::vector<JobKind> kinds;   ///< kinds[j] <-> region candidate j
    std::vector<u32> images;      ///< images[j]: store id of candidate j
    Cycle resident_since = 0;     ///< when the active kind took the slot
    bool swapping = false;        ///< bitstream in flight on the ICAP
    u32 target = 0;               ///< candidate index being streamed in
    /// kHysteresis confirmation state: the candidate index currently
    /// challenging the resident kind and when it took the role.
    u32 challenger = kNoChallenger;
    Cycle challenge_since = 0;
  };

  static constexpr u32 kNoChallenger = 0xFFFF'FFFF;

  void begin_swap(SlotState& s, std::size_t target);
  void on_icap_done(u32 token);
  void defer_until(Cycle at);

  Dispatcher& dispatcher_;
  dpr::IcapPort& icap_;
  const dpr::BitstreamStore& store_;
  dpr::BitstreamCache* cache_;
  SlotFarmConfig cfg_;
  u64 margin_pct_;  ///< switch_margin scaled x100 (integer compares)
  std::vector<SlotState> slots_;
  bool deferred_due_ = false;  ///< a residency-gated decision is pending
  Cycle deferred_at_ = 0;      ///< when it matures (wake_at armed)
  u64 swaps_started_ = 0;
  u64 swaps_completed_ = 0;
  u64 preemptions_ = 0;
  u64 preempted_jobs_ = 0;
};

}  // namespace ouessant::svc
