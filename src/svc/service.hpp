// OffloadService: the whole offload stack assembled — a platform::Soc,
// one RAC+OCP pair per configured worker, an IrqController aggregating
// their completion interrupts, and the Dispatcher serving a workload.
//
// This is the top of DESIGN.md §9: a scenario (or application)
// constructs an OffloadService, optionally attaches writers over its
// gauges() or a tracer, then calls run(workload) and reads the
// ServiceReport. Construction performs NO timed accesses — the first
// kernel activity happens inside run() — so writers can always be
// attached in between.
#pragma once

#include <memory>
#include <vector>

#include "cpu/irq_controller.hpp"
#include "exp/result.hpp"
#include "fault/injector.hpp"
#include "fifo/chain_link.hpp"
#include "obs/flight.hpp"
#include "obs/gauges.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"
#include "platform/soc.hpp"
#include "svc/dispatcher.hpp"
#include "svc/latency.hpp"
#include "svc/slots.hpp"
#include "svc/workload.hpp"

namespace ouessant::svc {

/// Where the service's interrupt controller lives in the fixed map
/// (after the DMA engine window).
inline constexpr Addr kSvcIrqCtlBase = 0x8003'0000;

/// One OCP worker: which job kind it serves and how many same-kind jobs
/// the dispatcher may coalesce into a single v2-loop launch.
struct OcpSpec {
  JobKind kind = JobKind::kIdct;
  u32 max_batch = 1;
};

/// One chained worker (docs/chaining.md): a dequantize RAC feeding an
/// IDCT RAC, serving JobKind::kJpegChain. `mode` is the one-flag
/// ablation — kLinked moves intermediate blocks over the p2p ChainLink,
/// kStoreForward bounces them through SRAM with a second interrupt.
struct ChainSpec {
  u32 max_batch = 1;
  drv::ChainMode mode = drv::ChainMode::kLinked;
  /// ChainLink occupancy per intermediate word (>= 1; 1 = wire speed).
  u32 link_cycles_per_word = 1;
};

struct ServiceConfig {
  platform::SocConfig soc{};
  std::vector<OcpSpec> ocps = {OcpSpec{}};
  std::size_t queue_depth = 64;
  /// Fault injection plan; unarmed (no specs) by default. When armed,
  /// hooks are installed on the bus, the IRQ controller and every OCP
  /// before the first tick (docs/robustness.md).
  fault::FaultPlan faults{};
  /// Dispatcher fault-handling policy; unarmed by default. Arm it
  /// whenever faults is armed, or injected faults become run aborts.
  RetryPolicy retry{};
  /// Reconfigurable slot farm (docs/reconfiguration.md). Disabled by
  /// default; when enabled, `count` extra workers are added after the
  /// static `ocps`, each hosting a ReconfigSlot the SlotManager may
  /// retarget as the demand mix shifts.
  SlotFarmConfig slots{};
  /// Chained dequantize->IDCT worker pairs, added after the static ocps
  /// and the slot farm. Each spec contributes two OCPs, one ChainLink
  /// and ONE dispatcher worker serving JobKind::kJpegChain.
  std::vector<ChainSpec> chains{};
};

struct ServiceReport {
  u64 jobs = 0;       ///< jobs the workload intended to submit
  u64 completed = 0;
  u64 rejected = 0;   ///< dropped by the bounded queue
  u64 batches = 0;    ///< launches across all workers
  u64 installs = 0;   ///< timed microcode (re)installs
  std::size_t peak_depth = 0;
  Cycle start = 0;
  Cycle end = 0;
  LatencyStats wait;     ///< arrival -> dispatch
  LatencyStats service;  ///< dispatch -> acknowledged completion
  LatencyStats e2e;      ///< arrival -> acknowledged completion
  std::vector<WorkerStats> workers;

  // Slot-farm accounting (populated — and emitted by add_to — only when
  // the service carries a farm, so farm-less runs keep their schema).
  bool farm = false;
  u64 swaps_started = 0;
  u64 swaps_completed = 0;
  u64 preemptions = 0;       ///< busy workers quiesced for a swap
  u64 preempted_jobs = 0;    ///< jobs re-queued by those preemptions
  u64 icap_busy_cycles = 0;  ///< cycles the configuration port ran this run
  u64 cache_hits = 0;        ///< bitstream staging cache (0/0 = no cache)
  u64 cache_misses = 0;

  // Chain accounting (populated — and emitted by add_to — only when the
  // service carries chained workers, so chain-less runs keep their
  // schema). busy cycles == words * cycles_per_word by the ChainLink's
  // construction.
  bool chained = false;
  u64 link_words = 0;        ///< words all ChainLinks moved this run
  u64 link_busy_cycles = 0;  ///< link-occupied cycles across all links

  // Fault accounting (populated — and emitted by add_to — only when the
  // run was fault-aware, so unarmed runs keep their metric schema).
  bool fault_aware = false;
  u64 injected = 0;         ///< faults the injector fired this run
  u64 faults = 0;           ///< worker fault events the dispatcher saw
  u64 retries = 0;          ///< retry launches scheduled
  u64 failed = 0;           ///< jobs given up on
  u64 irq_recoveries = 0;   ///< completions rescued by the watchdog poll
  u32 quarantined = 0;      ///< workers sidelined at end of run

  [[nodiscard]] u64 makespan() const { return end - start; }

  /// Fraction of intended jobs that completed with verified payloads —
  /// the serve_faulty family's availability metric.
  [[nodiscard]] double availability() const {
    return jobs > 0 ? static_cast<double>(completed) /
                          static_cast<double>(jobs)
                    : 0.0;
  }

  /// Flatten into the metric schema EXPERIMENTS.md documents for
  /// serve_* rows (counts, histograms, throughput, per-OCP utilization).
  void add_to(exp::Result& result) const;
};

class OffloadService {
 public:
  explicit OffloadService(ServiceConfig cfg = {});

  /// The standard service gauges: queue depth, in-flight jobs, bus
  /// grant and per-worker busy. Hand them to an obs::VcdTrace or
  /// obs::MetricsSampler before run(); they read this service, so the
  /// writer must not outlive it.
  [[nodiscard]] obs::Gauges gauges();

  /// Wire @p tracer through every layer of the stack: dispatcher flows
  /// and job spans, driver session spans, bus transactions, controller
  /// instruction spans, RAC busy windows. Call before run().
  void attach_tracer(obs::EventTracer& tracer);

  /// Arm the sampling profiler: job-level trace hooks (enqueue,
  /// flow arrows, dispatch/retire spans) fire for the profiler's 1-in-N
  /// job subset only, into the profiler's tracer. The fleet-affordable
  /// alternative to attach_tracer: hardware layers stay untraced, and
  /// arming is passive — sim clocks are bit-identical either way.
  void attach_profiler(obs::SamplingProfiler& prof);

  /// Arm the flight recorder: the hardware layers (controllers, RACs,
  /// ICAP) stream full-fidelity events into @p flight's bounded ring,
  /// and the dispatcher latches a trigger on quarantine / watchdog
  /// faults so the owning layer knows to dump the ring post-mortem.
  /// The bus is deliberately NOT wired (a bus tracer turns off the
  /// batched-window fast path; the ring must stay affordable on every
  /// shard). Snapshot-carried: the "svc" section records the ring so a
  /// warm-booted clone resumes with its template's recent history.
  void attach_flight_recorder(obs::FlightRecorder& flight);

  /// Toggle raw latency-sample retention in the ServiceReport (default
  /// on). Fleet shards turn it off: per-job latencies stream into the
  /// fleet's mergeable sketches via the job observer instead, so peak
  /// retained samples stays O(sketch), not O(jobs).
  void set_latency_recording(bool on) { record_latency_ = on; }

  /// Serve @p workload to completion and report. Single-shot: a service
  /// instance runs exactly one workload (scenarios build a fresh SoC per
  /// grid point, as the parallel sweep requires). Equivalent to
  /// begin(); while (!step()) {} finish().
  ServiceReport run(const WorkloadConfig& workload);

  /// Open-loop run over an explicit, pre-built arrival schedule — phased
  /// demand mixes the WorkloadConfig generator cannot express (the
  /// dpr_adapt scenario's mid-run shift onto an unprovisioned kind).
  /// Jobs must be sorted by arrival with payloads filled in (make_job /
  /// phased_arrivals).
  ServiceReport run_schedule(std::vector<Job> arrivals);

  /// Called once per completed job (after the report recorded it) — the
  /// per-phase metric hook phased scenarios use. Set before run().
  void set_job_observer(std::function<void(const Job&)> fn) {
    job_observer_ = std::move(fn);
  }

  // -- incremental run protocol (fleet shards interleave many stacks) ---
  /// The setup half of run(): validate, configure IRQs, generate the
  /// workload, seed the initial submissions. With @p warm the timed IRQ
  /// configuration is skipped (a warm-booted clone inherits it from the
  /// snapshot) and every per-run counter is zeroed, so the report covers
  /// only this run — while resident microcode, cache contents and IRQ
  /// masks stay, which is the warm-boot win.
  void begin(const WorkloadConfig& workload, bool warm = false);
  /// One service pass plus one sleep-until-due. Returns true when all
  /// submitted work is accounted for.
  bool step();
  [[nodiscard]] bool finished() const {
    return began_ && dispatcher_.finished();
  }
  /// Close out the run and build the report. Single-shot per begin().
  ServiceReport finish();

  // -- snapshot / warm-boot cloning -------------------------------------
  /// Snapshot the entire service stack: the SoC walk (which includes
  /// the IRQ controller and dispatcher — they are kernel components)
  /// plus a "svc" section carrying the host-side run state (workload,
  /// RNG stream, issue counter, report accumulators, injector streams).
  /// Legal between steps, never inside one.
  [[nodiscard]] snap::Snapshot snapshot() const;
  /// Restore into a service built from the same ServiceConfig. If a run
  /// was in progress at save time the restored instance continues it:
  /// step() until finished(), then finish().
  void restore(const snap::Snapshot& snap);

  [[nodiscard]] platform::Soc& soc() { return soc_; }
  [[nodiscard]] Dispatcher& dispatcher() { return dispatcher_; }
  /// The armed injector, or nullptr when cfg.faults was empty.
  [[nodiscard]] const fault::Injector* injector() const {
    return injector_.get();
  }
  /// The slot farm's pieces, or nullptr when cfg.slots is disabled.
  [[nodiscard]] SlotManager* slot_manager() { return slot_mgr_.get(); }
  [[nodiscard]] dpr::IcapPort* icap() { return icap_.get(); }
  /// The chain conduits, one per cfg.chains entry (empty when none) —
  /// bench scenarios read words_moved/busy_cycles and hand them to the
  /// ledger's collect_chain.
  [[nodiscard]] const std::vector<std::unique_ptr<fifo::ChainLink>>&
  chain_links() const {
    return links_;
  }

 private:
  void validate(const WorkloadConfig& workload) const;
  /// The one setup of a run, shared by begin() and run_schedule():
  /// validate, reset the run state, configure IRQs (with @p warm, zero
  /// the run counters instead), install the completion hook and submit
  /// the work. A closed loop seeds one job per client. An open loop
  /// loads @p arrivals, or, when they are empty, the schedule
  /// open_loop_arrivals draws from the workload's seed.
  void start(const WorkloadConfig& workload, bool warm,
             std::vector<Job> arrivals);
  void install_completion_hook();
  /// Counters the report takes from snapshot-carried components, which
  /// count from their construction: a warm boot inherits the template's
  /// share, so start() records them and finish() reports the difference.
  struct Lifetime {
    u64 icap_busy = 0;
    u64 link_words = 0;
    u64 link_busy = 0;
    u64 injected = 0;
  };
  [[nodiscard]] Lifetime lifetime() const;
  /// The "svc" section's field list (run state, RNG stream, report
  /// accumulators, injector and flight ring).
  void state(snap::Fields& f);
  /// Register @p ocp as the next worker, staged in its own SRAM window.
  u32 add_ocp_worker(core::Ocp& ocp, JobKind kind, u32 max_batch);
  void build_slot_farm();
  void build_chains();

  ServiceConfig cfg_;
  platform::Soc soc_;
  cpu::IrqController irq_ctl_;
  Dispatcher dispatcher_;
  std::vector<std::unique_ptr<core::Rac>> racs_;
  std::unique_ptr<fault::Injector> injector_;
  // Slot farm (cfg_.slots.enabled() only; construction order matters:
  // store -> port -> cache -> regions/workers -> manager).
  std::unique_ptr<dpr::BitstreamStore> bitstreams_;
  std::unique_ptr<dpr::IcapPort> icap_;
  std::unique_ptr<dpr::BitstreamCache> bitstream_cache_;
  std::vector<std::unique_ptr<core::ReconfigSlot>> regions_;
  std::unique_ptr<SlotManager> slot_mgr_;
  std::vector<std::unique_ptr<fifo::ChainLink>> links_;  ///< one per chain
  std::function<void(const Job&)> job_observer_;
  obs::FlightRecorder* flight_ = nullptr;  ///< attached ring (not owned)
  bool record_latency_ = true;
  bool ran_ = false;

  // In-progress run state (begin .. finish), snapshot-carried.
  WorkloadConfig workload_;
  util::Rng rng_;
  u64 issued_ = 0;
  ServiceReport rep_;
  bool began_ = false;
  /// lifetime() at a warm start(), zero otherwise. Host-side only: a
  /// mid-run image of a warm run restores with zero bases and reports
  /// these four counters from construction.
  Lifetime base_;
};

}  // namespace ouessant::svc
