// The offload service's scheduler: a bounded JobQueue in front of a set
// of workers, drained by a CPU-driven dispatch loop. Every worker is one
// svc::Backend (a single OCP or a two-stage chain); the Dispatcher never
// asks which.
//
// Split of responsibilities (DESIGN.md §9): the Dispatcher is a
// sim::Component only as a *doorbell* — its tick raises arrival_due_
// exactly at the cycle the next open-loop job arrives (armed with
// wake_at, so the quiescence-gated kernel can sleep through the gaps).
// All actual service work — ingesting arrivals, acknowledging
// completions, installing/launching batch programs — happens on the host
// call stack in service_once(), because driver accesses are blocking Gpp
// calls that re-enter the kernel and therefore must never run inside a
// component tick.
//
// The run loop the service executes is:
//   while (!finished())  { service_once();  kernel.run_until(service_due); }
// where service_due() is a pure function of component state (the arrival
// doorbell and the IRQ controller's aggregated CPU line), as
// Kernel::run_until requires.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/gpp.hpp"
#include "cpu/irq_controller.hpp"
#include "fault/report.hpp"
#include "obs/flight.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"
#include "sim/kernel.hpp"
#include "svc/backend.hpp"
#include "svc/job.hpp"

namespace ouessant::svc {

/// Per-worker accounting the service report aggregates.
struct WorkerStats {
  u64 jobs = 0;          ///< jobs completed by this worker
  u64 launches = 0;      ///< start bits issued (batches)
  u64 installs = 0;      ///< timed program (re)installs
  u64 busy_cycles = 0;   ///< cycles between start and acknowledged done
  u64 faults = 0;        ///< faulted batches charged to this worker
};

/// Fault-handling policy for the dispatch loop (docs/robustness.md).
/// Default-constructed it is unarmed: armed() is false and the
/// dispatcher's behaviour — every timed bus access included — is
/// bit-identical to the pre-fault service loop.
struct RetryPolicy {
  u32 max_attempts = 1;      ///< total tries per job (1 = no retry)
  u64 backoff_base = 2048;   ///< cycles before the first retry
  u32 backoff_mult = 2;      ///< exponential factor per further attempt
  u32 quarantine_after = 0;  ///< consecutive faulted batches before a
                             ///< worker is quarantined (0 = never)
  u64 watchdog_cycles = 0;   ///< busy deadline before the CPU polls a
                             ///< silent worker (0 = off; hangs and
                             ///< suppressed IRQs need this to be caught)

  [[nodiscard]] bool armed() const {
    return max_attempts > 1 || quarantine_after > 0 || watchdog_cycles > 0;
  }

  /// Backoff before retry number @p attempt (1-based: the first retry
  /// waits backoff(1) == backoff_base cycles, the next one mult times
  /// that, and so on).
  [[nodiscard]] u64 backoff(u32 attempt) const {
    u64 d = backoff_base;
    for (u32 i = 1; i < attempt; ++i) d *= backoff_mult;
    return d;
  }
};

/// What the dispatcher knows about a slot-farm scheduler (implemented by
/// svc::SlotManager; an interface so the two headers don't cycle). The
/// dispatcher calls direct() once per service pass — after completions
/// retire, before ready jobs dispatch — so freed workers can be
/// retargeted before new work lands on them.
class SlotDirector {
 public:
  virtual ~SlotDirector() = default;
  /// One scheduling pass (host stack; timed quiesce sequences allowed).
  virtual void direct() = 0;
  /// True while a bitstream is streaming — finished() waits it out so
  /// every swap's cycles are fully accounted at end of run.
  [[nodiscard]] virtual bool swap_in_flight() const = 0;
  /// True when the farm can ever serve @p kind. Adaptive policies serve
  /// every candidate (a swap brings it in on demand); a static farm
  /// serves only what is resident — jobs for anything else are refused
  /// at submission, like a fixed-function device returning ENOSYS.
  [[nodiscard]] virtual bool serves(JobKind kind) const = 0;
};

class Dispatcher : public sim::Component {
 public:
  /// @p irq_ctl_base: where @p irq_ctl is mapped on the bus (the
  /// dispatcher reads PENDING through timed MMIO like a real ISR would).
  Dispatcher(sim::Kernel& kernel, std::string name, cpu::Gpp& gpp,
             mem::Sram& mem, cpu::IrqController& irq_ctl, Addr irq_ctl_base,
             std::size_t queue_depth);

  /// Register @p backend as a worker for @p kind jobs. Batches of up to
  /// @p max_batch same-kind jobs are launched as one v2-loop program; the
  /// backend's staging windows must hold that many blocks. Returns the
  /// worker index. The backend attached its IRQ sources when it was
  /// built; configure_irqs() later unmasks them.
  u32 add_worker(std::unique_ptr<Backend> backend, JobKind kind,
                 u32 max_batch);

  /// Hand the open-loop arrival schedule over (must be sorted by
  /// arrival, every payload one block of its kind; ConfigError
  /// otherwise). The doorbell arms itself.
  void load_schedule(std::vector<Job> arrivals);

  /// Host-stack submission at now() (closed-loop clients). Charges the
  /// CPU enqueue cost; false when the queue rejected the job. A payload
  /// other than one block of its kind is a ConfigError.
  bool submit_now(Job job);

  /// True when some worker has @p kind now, or the slot farm can swap
  /// it in. Unservable jobs are refused at the door (counted with the
  /// queue's rejects) instead of stranding in the queue forever.
  [[nodiscard]] bool servable(JobKind kind) const;

  /// Called once per completed job, after its timestamps and worker
  /// index are final — the closed-loop generator's resubmission hook and
  /// the service's latency recorder.
  void set_completion_hook(std::function<void(const Job&)> fn) {
    completion_hook_ = std::move(fn);
  }

  /// Called once per job given up on (retry budget exhausted or its
  /// kind became unservable) — the SLO layer counts these as bad
  /// events; the completion hook never sees them.
  void set_failure_hook(std::function<void(const Job&)> fn) {
    failure_hook_ = std::move(fn);
  }

  /// Arm the fault-handling policy (retry/backoff, watchdog,
  /// quarantine). Call before the run loop; an unarmed policy (the
  /// default) leaves every timed access sequence untouched.
  void set_retry_policy(const RetryPolicy& policy) { policy_ = policy; }

  /// Timed IRQ setup: enable every backend's interrupting stages, then
  /// unmask their sources at the controller. First timed accesses
  /// of a run — call after VCD signals are attached, before the loop.
  void configure_irqs();

  /// One service pass: ingest due arrivals, retire completions, dispatch
  /// ready jobs to idle workers. All timed, on the host stack.
  void service_once();

  /// True when the CPU has service work: an arrival is due, a worker
  /// finished, a backed-off retry matured, a watchdog deadline passed,
  /// or a slot swap completed. Pure function of component state
  /// (run_until-safe; the matching wake_at timers are armed when each
  /// deadline is set, and the swap-completion flag is raised inside the
  /// ICAP port's tick).
  [[nodiscard]] bool service_due() const {
    return arrival_due_ || irq_ctl_.cpu_line().raised() || retry_due() ||
           watchdog_due() || slots_due_;
  }

  /// All submitted work accounted for: every scheduled arrival ingested,
  /// queue drained, no batch in flight, no retry backing off, no
  /// bitstream mid-stream.
  [[nodiscard]] bool finished() const {
    return next_arrival_ >= schedule_.size() && queue_.empty() &&
           in_flight() == 0 && retry_queue_.empty() &&
           (slots_ == nullptr || !slots_->swap_in_flight());
  }

  // -- slot farm hooks (svc::SlotManager; docs/reconfiguration.md) ------
  /// Attach the slot-farm scheduler. service_once() then consults it
  /// every pass, and finished() waits out in-flight swaps.
  void set_slot_director(SlotDirector* d) { slots_ = d; }
  /// Raised from the ICAP completion callback (inside a tick) so the
  /// host loop wakes and the freed slot gets work immediately.
  void note_slots_due() { slots_due_ = true; }
  /// Mark worker @p i as slot-backed: its kind may change at runtime
  /// (retarget_worker) and a snapshot restore adopts the image's kind
  /// instead of rejecting the mismatch.
  void mark_worker_retargetable(std::size_t i) {
    workers_.at(i).retargetable = true;
  }
  /// Gate / un-gate worker @p i while its region reconfigures: a gated
  /// worker is skipped by dispatch_ready().
  void set_worker_reconfiguring(std::size_t i, bool on) {
    workers_.at(i).reconfiguring = on;
  }
  /// Quiesce a busy worker for a swap: timed recovery sequence (the same
  /// RST + settle the fault path uses), then its in-flight batch goes
  /// back to the *head* of the queue — no attempts bump, preemption is
  /// the scheduler's doing, not the job's failure. Returns the number of
  /// re-queued jobs (0 when the worker was idle).
  u32 preempt_worker(std::size_t i);
  /// Point an idle worker at a new job kind (the slot finished swapping).
  /// Every kind shares block_words, so the resident batch program stays
  /// valid and installed_batch survives the retarget.
  void retarget_worker(std::size_t i, JobKind kind);

  // -- introspection (trace signals, report) ---------------------------
  [[nodiscard]] const JobQueue& queue() const { return queue_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }
  [[nodiscard]] bool worker_busy(std::size_t i) const {
    return workers_.at(i).busy();
  }
  [[nodiscard]] JobKind worker_kind(std::size_t i) const {
    return workers_.at(i).kind;
  }
  [[nodiscard]] const WorkerStats& worker_stats(std::size_t i) const {
    return workers_.at(i).stats;
  }
  [[nodiscard]] u64 completed() const { return completed_; }
  [[nodiscard]] u64 rejected() const { return queue_.rejected(); }
  /// Jobs launched on some worker: the sum of the workers' batches.
  [[nodiscard]] u32 in_flight() const;

  // -- fault-aware introspection ---------------------------------------
  [[nodiscard]] u64 faults() const { return faults_; }
  [[nodiscard]] u64 retries() const { return retries_; }
  [[nodiscard]] u64 failed() const { return failed_; }
  [[nodiscard]] u64 irq_recoveries() const { return irq_recoveries_; }
  [[nodiscard]] u32 quarantined_count() const;
  [[nodiscard]] bool worker_quarantined(std::size_t i) const {
    return workers_.at(i).quarantined;
  }
  /// Cycles worker @p i has sat quarantined as of @p wall (0 when it
  /// never was) — the CycleLedger's kWait share for service workers.
  [[nodiscard]] u64 worker_quarantined_cycles(std::size_t i,
                                              Cycle wall) const;

  /// Attach (or detach, nullptr) an event tracer; call after the last
  /// add_worker(). Emits: enqueue instants + queue/in-flight counters on
  /// "svc.sched", one "batch" span per launch on "svc.worker.<ocp>", one
  /// per-job span (arrival -> completion, annotated with wait/service
  /// split) on "svc.jobs", and a flow arrow stitching each job's
  /// enqueue -> dispatch -> retire across those tracks. Also forwards to
  /// every backend (driver spans land on their "drv.*" tracks).
  void set_tracer(obs::EventTracer* tracer);

  /// Attach a sampling profiler: the job-level trace hooks (enqueue
  /// instants, flow arrows, dispatch/retire spans) arm for the
  /// profiler's 1-in-N job subset only, writing into the profiler's
  /// tracer. Unlike set_tracer this does NOT forward to the worker
  /// backends or emit queue counters — sampled tracing is the
  /// fleet-affordable subset (docs/observability.md). Purely host-side:
  /// sim clocks are bit-identical armed or not.
  void set_job_sampler(const obs::SamplingProfiler* prof);

  /// Attach a flight recorder for fault triggers: the dispatcher calls
  /// trigger() when it quarantines a worker or a watchdog deadline
  /// expires, latching the ring for a post-mortem dump. Independent of
  /// set_tracer — the recorder is typically wired to the hardware
  /// layers while the dispatcher only marks the moments that matter.
  void set_flight_recorder(obs::FlightRecorder* flight) { flight_ = flight; }

  // sim::Component (the arrival doorbell).
  void tick_commit() override;
  [[nodiscard]] bool is_quiescent() const override;
  /// Queue contents, schedule position, per-worker in-flight batches and
  /// stats, retry backlog, and the run counters. Worker count/kind must
  /// match the image (same ServiceConfig); backends carry only their
  /// drivers' shadows (and a chain's stage). The retry policy and hooks
  /// are host wiring.
  void state(snap::Fields& f) override;

  /// Warm-boot: zero every per-run counter (queue accept/reject, worker
  /// stats, fault accounting) while keeping the warm microstate —
  /// resident programs (installed_batch), IRQ configuration, cache
  /// contents — so a cloned shard's report covers only its own run.
  void reset_run_counters();

 private:
  struct Worker {
    std::unique_ptr<Backend> backend;
    JobKind kind = JobKind::kIdct;
    u32 max_batch = 1;
    std::vector<Job> batch;    ///< jobs of the in-flight launch
    u32 installed_batch = 0;   ///< batch size the resident program serves
    Cycle busy_since = 0;
    u32 consecutive_faults = 0;  ///< faulted batches since the last success
    bool quarantined = false;    ///< permanently sidelined for this run
    Cycle quarantine_since = 0;
    bool retargetable = false;   ///< slot-backed: kind may change at runtime
    bool reconfiguring = false;  ///< region mid-swap: no dispatches
    WorkerStats stats;
    obs::TrackId track = 0;    ///< "svc.worker.<name>" (tracer attached)

    /// Busy exactly while it holds a launched batch.
    [[nodiscard]] bool busy() const { return !batch.empty(); }
  };

  /// A job waiting out its retry backoff.
  struct PendingRetry {
    Cycle ready_at = 0;
    Job job;
  };

  /// Job-coherent sampling gate: true when @p id's events should be
  /// emitted (tracer attached, and either no profiler or the job is in
  /// the sampled subset).
  [[nodiscard]] bool job_traced(u64 id) const {
    return tracer_ != nullptr &&
           (sampler_ == nullptr || sampler_->sampled(id));
  }
  [[nodiscard]] bool batch_traced(const std::vector<Job>& batch) const;
  /// Open the scheduler, job and per-worker tracks on tracer_.
  void open_tracks();

  /// Charge the CPU enqueue cost and admit @p job: refused at the door
  /// when no worker can ever serve its kind, rejected when the queue is
  /// full. True when the job was queued.
  bool enqueue(Job job);
  void ingest_arrivals();
  void retire_completions();
  /// Act on what a backend poll found (retire, relay, or fault).
  void serve_poll(Worker& w, PollResult result);
  void dispatch_ready();
  void launch(std::size_t wi, std::vector<Job> batch);
  void retire_worker(Worker& w);
  /// Quiesce a busy worker (timed recovery) and take its batch back,
  /// billing the busy time; @p flag marks the trace span ("preempted",
  /// "aborted"). Returns the batch; @p recovered_at is when recovery
  /// finished, sampled before the retire charge.
  std::vector<Job> abort_batch(Worker& w, const char* flag,
                               Cycle& recovered_at);
  void trace_enqueue(u64 id, JobKind kind);
  void trace_queue_counters();

  // -- fault handling (all early-return when policy_ is unarmed) --------
  [[nodiscard]] bool retry_due() const {
    return !retry_queue_.empty() &&
           retry_queue_.front().ready_at <= kernel().now();
  }
  [[nodiscard]] bool watchdog_due() const;
  void check_watchdogs();
  void requeue_retries();
  void fail_unservable();
  void handle_worker_fault(Worker& w, fault::FaultClass cls);
  void penalize_worker(Worker& w);
  void fault_job(Job job, fault::FaultClass cls, Cycle now);
  void fail_job(const Job& job, fault::FaultClass cls);
  /// Insert into the ready_at-sorted retry queue and arm its wake.
  void schedule_retry(PendingRetry p);

  cpu::Gpp& gpp_;
  mem::Sram& mem_;
  cpu::IrqController& irq_ctl_;
  Addr irq_ctl_base_;
  JobQueue queue_;
  std::vector<Worker> workers_;
  std::vector<Job> schedule_;
  std::size_t next_arrival_ = 0;
  bool arrival_due_ = false;
  u64 completed_ = 0;
  RetryPolicy policy_;
  std::vector<PendingRetry> retry_queue_;  ///< sorted by ready_at
  u64 faults_ = 0;           ///< worker fault events (batch granularity)
  u64 retries_ = 0;          ///< retry launches scheduled
  u64 failed_ = 0;           ///< jobs given up on (budget / unservable)
  u64 irq_recoveries_ = 0;   ///< completions found by the watchdog poll
  SlotDirector* slots_ = nullptr;  ///< slot-farm scheduler (optional)
  bool slots_due_ = false;   ///< a swap completed since the last pass
  std::function<void(const Job&)> completion_hook_;
  std::function<void(const Job&)> failure_hook_;
  obs::EventTracer* tracer_ = nullptr;
  const obs::SamplingProfiler* sampler_ = nullptr;  ///< 1-in-N job gate
  obs::FlightRecorder* flight_ = nullptr;  ///< fault-trigger target
  obs::TrackId sched_track_ = 0;  ///< "svc.sched": instants + counters
  obs::TrackId jobs_track_ = 0;   ///< "svc.jobs": per-job lifetime spans
};

}  // namespace ouessant::svc
