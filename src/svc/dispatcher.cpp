#include "svc/dispatcher.hpp"

#include <algorithm>

#include "svc/workload.hpp"

namespace ouessant::svc {

namespace {

// Timing-annotated CPU bookkeeping (the service's software overhead, in
// the same CostMeter currency the SW baselines use).

/// Enqueue: bounds check, slot write, tail bump — ~32 cycles on a Leon3.
void charge_enqueue(cpu::Gpp& gpp) {
  auto m = gpp.meter();
  m.call();
  m.load(4);
  m.store(4);
  m.branch(2);
  gpp.spend(m);
}

/// Launch bookkeeping around the driver sequence: pick the worker, fill
/// the descriptor, arm the completion record — ~40 cycles.
void charge_launch(cpu::Gpp& gpp) {
  auto m = gpp.meter();
  m.call();
  m.load(6);
  m.store(6);
  m.branch(2);
  gpp.spend(m);
}

/// Completion bookkeeping per retired job (ISR tail: stats + hand-off).
void charge_retire(cpu::Gpp& gpp, u64 jobs) {
  auto m = gpp.meter();
  m.call(jobs);
  gpp.spend(m);
}

bool arrives_before(const Job& a, const Job& b) {
  return a.arrival < b.arrival;
}

/// Every stage of a launch moves one block per job (launch, retire), so
/// a job enters only with a payload of exactly one block of its kind.
void check_payload(const Job& job) {
  const u32 block = block_words(job.kind);
  if (job.payload.size() != block) {
    throw ConfigError("Dispatcher: job " + std::to_string(job.id) +
                      " holds " + std::to_string(job.payload.size()) +
                      " payload words, not one " + kind_name(job.kind) +
                      " block of " + std::to_string(block));
  }
}

}  // namespace

Dispatcher::Dispatcher(sim::Kernel& kernel, std::string name, cpu::Gpp& gpp,
                       mem::Sram& mem, cpu::IrqController& irq_ctl,
                       Addr irq_ctl_base, std::size_t queue_depth)
    : sim::Component(kernel, std::move(name)),
      gpp_(gpp),
      mem_(mem),
      irq_ctl_(irq_ctl),
      irq_ctl_base_(irq_ctl_base),
      queue_(queue_depth) {}

u32 Dispatcher::add_worker(std::unique_ptr<Backend> backend, JobKind kind,
                           u32 max_batch) {
  if (max_batch == 0) {
    throw ConfigError("Dispatcher: max_batch must be >= 1");
  }
  Worker w;
  w.backend = std::move(backend);
  w.kind = kind;
  w.max_batch = max_batch;
  workers_.push_back(std::move(w));
  return static_cast<u32>(workers_.size() - 1);
}

void Dispatcher::open_tracks() {
  sched_track_ = tracer_->track("svc.sched");
  jobs_track_ = tracer_->track("svc.jobs");
  for (auto& w : workers_) {
    w.track = tracer_->track("svc.worker." + w.backend->name());
  }
}

void Dispatcher::set_tracer(obs::EventTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) open_tracks();
  for (auto& w : workers_) w.backend->set_tracer(tracer);
}

void Dispatcher::set_job_sampler(const obs::SamplingProfiler* prof) {
  sampler_ = prof;
  if (prof == nullptr) return;
  // Job-level hooks only: the worker backends (driver spans) and queue
  // counters stay detached — sampled tracing is the subset that stays
  // affordable with hundreds of shards, and a sampled job's events
  // (enqueue instant, flow arrows, dispatch/retire spans) are coherent
  // end-to-end because job_traced() is a pure function of the id.
  tracer_ = &prof->tracer();
  open_tracks();
}

bool Dispatcher::batch_traced(const std::vector<Job>& batch) const {
  if (tracer_ == nullptr) return false;
  if (sampler_ == nullptr) return true;
  for (const Job& j : batch) {
    if (sampler_->sampled(j.id)) return true;
  }
  return false;
}

void Dispatcher::trace_enqueue(u64 id, JobKind kind) {
  if (!job_traced(id)) return;
  tracer_->instant(sched_track_, "enqueue",
                   {obs::arg("id", id), obs::arg("kind", kind_name(kind))});
  tracer_->flow_begin(sched_track_, "job", id);
  trace_queue_counters();
}

void Dispatcher::trace_queue_counters() {
  // Counter series are full-rate by nature; under a sampling profiler
  // they are dropped entirely rather than emitted at a misleading
  // sampled rate.
  if (tracer_ == nullptr || sampler_ != nullptr) return;
  tracer_->counter(sched_track_, "queue_depth", queue_.size());
  tracer_->counter(sched_track_, "in_flight", in_flight());
}

void Dispatcher::load_schedule(std::vector<Job> arrivals) {
  if (!std::is_sorted(arrivals.begin(), arrivals.end(), arrives_before)) {
    throw ConfigError("Dispatcher: schedule must be sorted by arrival");
  }
  for (const Job& job : arrivals) check_payload(job);
  schedule_ = std::move(arrivals);
  next_arrival_ = 0;
  arrival_due_ = false;
  if (!schedule_.empty()) wake_at(schedule_.front().arrival);
}

bool Dispatcher::submit_now(Job job) {
  check_payload(job);
  job.arrival = gpp_.now();
  return enqueue(std::move(job));
}

bool Dispatcher::enqueue(Job job) {
  charge_enqueue(gpp_);
  const u64 id = job.id;
  const JobKind kind = job.kind;
  if (!servable(kind)) {
    // A kind no worker will ever serve (static farm, image never
    // loaded): refuse at the door rather than strand it in the queue.
    queue_.refuse();
    return false;
  }
  // reject-on-full counted by the queue
  if (!queue_.push(std::move(job))) return false;
  trace_enqueue(id, kind);
  return true;
}

bool Dispatcher::servable(JobKind kind) const {
  for (const auto& w : workers_) {
    if (w.kind == kind) return true;
  }
  return slots_ != nullptr && slots_->serves(kind);
}

void Dispatcher::configure_irqs() {
  u32 mask = 0;
  for (auto& w : workers_) mask |= w.backend->enable_irqs();
  gpp_.write32(irq_ctl_base_ + cpu::kIrqCtlMask, mask);
}

void Dispatcher::tick_commit() {
  if (arrival_due_ || next_arrival_ >= schedule_.size()) return;
  if (kernel().now() >= schedule_[next_arrival_].arrival) {
    arrival_due_ = true;
  } else {
    wake_at(schedule_[next_arrival_].arrival);
  }
}

bool Dispatcher::is_quiescent() const {
  // Doorbell already rung (waiting on the host loop to consume it) or
  // nothing left to announce: ticking would be a no-op. Otherwise the
  // next arrival is in the future and a wake_at timer for it was armed
  // by load_schedule / ingest_arrivals / the last tick_commit.
  if (arrival_due_ || next_arrival_ >= schedule_.size()) return true;
  return kernel().now() < schedule_[next_arrival_].arrival;
}

void Dispatcher::service_once() {
  ingest_arrivals();
  if (policy_.armed()) {
    check_watchdogs();
    requeue_retries();
  }
  retire_completions();
  if (slots_ != nullptr) {
    // After retires (freed workers may be retargeted), before dispatches
    // (so work lands on the post-swap assignment, not the stale one).
    slots_due_ = false;
    slots_->direct();
  }
  dispatch_ready();
  if (policy_.armed()) fail_unservable();
}

void Dispatcher::ingest_arrivals() {
  // The enqueue cost advances simulated time, which can make further
  // arrivals due — the loop re-checks now() every iteration, so a burst
  // is ingested in one pass without losing the per-job CPU cost.
  while (next_arrival_ < schedule_.size() &&
         schedule_[next_arrival_].arrival <= gpp_.now()) {
    (void)enqueue(std::move(schedule_[next_arrival_++]));
  }
  arrival_due_ = false;
  if (next_arrival_ < schedule_.size()) {
    wake_at(schedule_[next_arrival_].arrival);
  }
}

void Dispatcher::retire_completions() {
  // Level-sensitive fabric: read PENDING once per pass, serve every set
  // source in ascending index order (deterministic), then re-sample —
  // a worker can finish while the CPU is busy acknowledging another.
  while (irq_ctl_.cpu_line().raised()) {
    const u32 pending = gpp_.read32(irq_ctl_base_ + cpu::kIrqCtlPending);
    bool served = false;
    for (auto& w : workers_) {
      if (!w.busy()) continue;
      const PollResult result = w.backend->poll(pending, policy_.armed());
      if (result == PollResult::kIdle) continue;
      serve_poll(w, result);
      served = true;
    }
    if (!served) break;
  }
}

void Dispatcher::serve_poll(Worker& w, PollResult result) {
  switch (result) {
    case PollResult::kIdle:
    case PollResult::kSpurious:  // level raced with an ack
      return;
    case PollResult::kError:
      handle_worker_fault(w, fault::FaultClass::kErrBit);
      return;
    case PollResult::kAdvanced:
      if (tracer_ != nullptr) {
        tracer_->instant(w.track, "chain_advance",
                         {obs::arg("kind", kind_name(w.kind)),
                          obs::arg("jobs", u64{w.batch.size()})});
      }
      return;
    case PollResult::kDone:
      retire_worker(w);
      return;
  }
}

void Dispatcher::retire_worker(Worker& w) {
  // The backend's poll acknowledged every stage: the batch is done now.
  const Cycle done_at = gpp_.now();
  const u32 block = block_words(w.kind);
  const Addr out_base = w.backend->out_base();
  std::vector<Job> batch = std::move(w.batch);
  w.batch.clear();
  w.stats.busy_cycles += done_at - w.busy_since;
  w.stats.jobs += batch.size();
  charge_retire(gpp_, batch.size());
  if (batch_traced(batch)) {
    tracer_->complete(w.track, "batch", w.busy_since, done_at,
                      {obs::arg("jobs", u64{batch.size()}),
                       obs::arg("kind", kind_name(w.kind))});
  }

  bool batch_faulted = false;
  u64 mismatches = 0;
  for (std::size_t j = 0; j < batch.size(); ++j) {
    Job& job = batch[j];
    job.complete = done_at;
    const auto got = mem_.dump(out_base + j * block * 4, block);
    if (got != reference_output(job.kind, job.payload)) {
      if (!policy_.armed()) {
        throw SimError("svc: output mismatch for job " +
                       std::to_string(job.id) + " (" + kind_name(job.kind) +
                       ") on " + w.backend->name() + " at cycle " +
                       std::to_string(done_at));
      }
      // Corrupted output (fifo_corrupt): only the mismatching job
      // retries; its batch siblings completed with good data.
      batch_faulted = true;
      ++mismatches;
      if (tracer_ != nullptr) {
        tracer_->instant(
            w.track, "fault",
            {obs::arg("class",
                      fault::class_name(fault::FaultClass::kVerifyMismatch)),
             obs::arg("id", job.id)});
      }
      fault_job(std::move(job), fault::FaultClass::kVerifyMismatch, done_at);
      continue;
    }
    ++completed_;
    if (job_traced(job.id)) {
      tracer_->complete(
          jobs_track_, kind_name(job.kind), job.arrival, job.complete,
          {obs::arg("id", job.id), obs::arg("wait", job.queue_wait()),
           obs::arg("service", job.service()),
           obs::arg("worker", w.backend->name())});
      tracer_->flow_end(jobs_track_, "job", job.id);
    }
    if (completion_hook_) completion_hook_(job);
  }
  if (policy_.armed()) {
    if (batch_faulted) {
      ++faults_;
      ++w.stats.faults;
      w.stats.jobs -= mismatches;  // mismatched jobs were not completed
      penalize_worker(w);
    } else {
      w.consecutive_faults = 0;
    }
  }
  trace_queue_counters();
}

void Dispatcher::dispatch_ready() {
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    if (w.busy() || w.quarantined || w.reconfiguring) continue;
    auto batch = queue_.take(w.kind, w.max_batch);
    if (batch.empty()) continue;
    launch(i, std::move(batch));
  }
}

void Dispatcher::launch(std::size_t wi, std::vector<Job> batch) {
  Worker& w = workers_[wi];
  const u32 block = block_words(w.kind);
  const Addr in_base = w.backend->in_base();

  // Stage the inputs contiguously, one block per batch slot, so the
  // batch program's post-increment addressing walks them in order.
  // Backdoor: clients own these buffers; the data is already resident.
  for (std::size_t j = 0; j < batch.size(); ++j) {
    mem_.load(in_base + j * block * 4, batch[j].payload);
  }

  // The resident microcode is parameterized by batch size only — reuse
  // it when the size repeats (the common steady state), pay the timed
  // word-by-word reinstall when it changes.
  if (w.installed_batch != batch.size()) {
    w.stats.installs += w.backend->install(static_cast<u32>(batch.size()));
    w.installed_batch = static_cast<u32>(batch.size());
  }

  charge_launch(gpp_);
  const Cycle dispatched = gpp_.now();
  for (auto& job : batch) {
    job.dispatch = dispatched;
    job.worker = static_cast<int>(wi);
    if (job_traced(job.id)) tracer_->flow_step(w.track, "job", job.id);
  }
  w.backend->start();
  w.busy_since = dispatched;
  ++w.stats.launches;
  w.batch = std::move(batch);
  if (policy_.watchdog_cycles > 0) {
    wake_at(w.busy_since + policy_.watchdog_cycles);
  }
  trace_queue_counters();
}

// ------------------------------------------------------ slot farm hooks --

u32 Dispatcher::preempt_worker(std::size_t i) {
  Worker& w = workers_.at(i);
  if (!w.busy()) return 0;
  if (tracer_ != nullptr) {
    tracer_->instant(w.track, "preempt",
                     {obs::arg("kind", kind_name(w.kind)),
                      obs::arg("jobs", u64{w.batch.size()})});
  }
  // Timed quiesce: the same RST pulse + settle polling the fault path
  // uses — the region must be provably idle before the bitstream moves.
  Cycle recovered_at = 0;
  std::vector<Job> batch = abort_batch(w, "preempted", recovered_at);
  // Head of the queue, original order, no attempts bump: the jobs did
  // nothing wrong and must not lose their place.
  for (std::size_t j = batch.size(); j-- > 0;) {
    queue_.requeue(std::move(batch[j]));
  }
  trace_queue_counters();
  return static_cast<u32>(batch.size());
}

std::vector<Job> Dispatcher::abort_batch(Worker& w, const char* flag,
                                         Cycle& recovered_at) {
  // Timed recovery sequence (ERR W1C + RST pulse + settle polls). The
  // resident program survives the soft reset, so installed_batch stays.
  w.backend->recover();
  recovered_at = gpp_.now();
  w.stats.busy_cycles += recovered_at - w.busy_since;  // recovery bills it
  if (tracer_ != nullptr) {
    tracer_->complete(w.track, "batch", w.busy_since, recovered_at,
                      {obs::arg("jobs", u64{w.batch.size()}),
                       obs::arg("kind", kind_name(w.kind)),
                       obs::arg(flag, u64{1})});
  }
  std::vector<Job> batch = std::move(w.batch);
  w.batch.clear();
  charge_retire(gpp_, batch.size());
  return batch;
}

void Dispatcher::retarget_worker(std::size_t i, JobKind kind) {
  Worker& w = workers_.at(i);
  if (w.busy()) {
    throw SimError("Dispatcher: retarget of busy worker " +
                   w.backend->name() + " (preempt first)");
  }
  if (!w.retargetable) {
    throw SimError("Dispatcher: worker " + w.backend->name() +
                   " is not slot-backed");
  }
  // block_words is kind-invariant, so the resident v2-loop program still
  // matches and installed_batch survives (same warm-microcode rule the
  // fault path relies on).
  w.kind = kind;
}

// ------------------------------------------------------ fault handling --

bool Dispatcher::watchdog_due() const {
  if (policy_.watchdog_cycles == 0) return false;
  for (const auto& w : workers_) {
    if (w.busy() &&
        kernel().now() >= w.busy_since + policy_.watchdog_cycles) {
      return true;
    }
  }
  return false;
}

void Dispatcher::check_watchdogs() {
  if (policy_.watchdog_cycles == 0) return;
  for (auto& w : workers_) {
    if (!w.busy()) continue;
    if (gpp_.now() < w.busy_since + policy_.watchdog_cycles) continue;
    // One timed CTRL read of the executing stage decides: completion
    // whose interrupt edge was lost, a latched fault, or a genuine hang.
    switch (w.backend->diagnose()) {
      case Stall::kLostIrq:
        ++irq_recoveries_;
        if (tracer_ != nullptr) {
          tracer_->instant(w.track, "irq_recovered",
                           {obs::arg("kind", kind_name(w.kind))});
        }
        // Serve it as if the executing stage's source were pending: the
        // poll re-reads CTRL (D is still set) and retires or relays.
        serve_poll(w, w.backend->poll(~u32{0}, policy_.armed()));
        break;
      case Stall::kError:
        handle_worker_fault(w, fault::FaultClass::kErrBit);
        break;
      case Stall::kHung:
        handle_worker_fault(w, fault::FaultClass::kTimeout);
        break;
    }
  }
}

void Dispatcher::handle_worker_fault(Worker& w, fault::FaultClass cls) {
  ++faults_;
  ++w.stats.faults;
  // The executing stage's controller is the diagnostic one (a linked
  // chain's head fault surfaces as the tail's watchdog expiry; recovery
  // resets both stages).
  FaultInfo info;
  if (cls == fault::FaultClass::kErrBit) {
    info = w.backend->last_fault();
    if (info.empty()) info = FaultInfo{gpp_.now(), 0, "ERR set"};
  } else {
    info = FaultInfo{gpp_.now(), w.backend->pc(),
                     "watchdog deadline (" +
                         std::to_string(policy_.watchdog_cycles) +
                         " cycles busy)"};
  }
  if (flight_ != nullptr && cls == fault::FaultClass::kTimeout) {
    // A hang is exactly the moment the ring was kept for: latch it so
    // the owning layer dumps the post-mortem window.
    flight_->trigger("watchdog:" + w.backend->name());
  }
  if (tracer_ != nullptr) {
    tracer_->instant(w.track, "fault",
                     {obs::arg("class", fault::class_name(cls)),
                      obs::arg("why", info.reason),
                      obs::arg("jobs", u64{w.batch.size()})});
  }

  Cycle now = 0;
  std::vector<Job> batch = abort_batch(w, "aborted", now);
  for (auto& job : batch) fault_job(std::move(job), cls, now);
  penalize_worker(w);
  trace_queue_counters();
}

void Dispatcher::penalize_worker(Worker& w) {
  ++w.consecutive_faults;
  if (policy_.quarantine_after > 0 && !w.quarantined &&
      w.consecutive_faults >= policy_.quarantine_after) {
    w.quarantined = true;
    w.quarantine_since = gpp_.now();
    if (tracer_ != nullptr) {
      tracer_->instant(w.track, "quarantine",
                       {obs::arg("consecutive", u64{w.consecutive_faults})});
    }
    if (flight_ != nullptr) {
      flight_->trigger("quarantine:" + w.backend->name());
    }
  }
}

void Dispatcher::fault_job(Job job, fault::FaultClass cls, Cycle now) {
  ++job.attempts;
  if (job.attempts < policy_.max_attempts) {
    ++retries_;
    const Cycle ready = now + policy_.backoff(job.attempts);
    if (tracer_ != nullptr) {
      tracer_->instant(sched_track_, "retry",
                       {obs::arg("id", job.id),
                        obs::arg("attempt", u64{job.attempts}),
                        obs::arg("class", fault::class_name(cls))});
    }
    schedule_retry(PendingRetry{ready, std::move(job)});
  } else {
    fail_job(job, cls);
  }
}

void Dispatcher::fail_job(const Job& job, fault::FaultClass cls) {
  ++failed_;
  if (job_traced(job.id)) {
    tracer_->instant(jobs_track_, "job_failed",
                     {obs::arg("id", job.id),
                      obs::arg("attempts", u64{job.attempts}),
                      obs::arg("class", fault::class_name(cls))});
    tracer_->flow_end(jobs_track_, "job", job.id);
  }
  // No completion_hook_: a failed job never completed. Closed-loop
  // generators must not rely on the hook for liveness under faults
  // (serve_faulty runs open-loop).
  if (failure_hook_) failure_hook_(job);
}

void Dispatcher::schedule_retry(PendingRetry p) {
  const auto it = std::upper_bound(
      retry_queue_.begin(), retry_queue_.end(), p.ready_at,
      [](Cycle r, const PendingRetry& q) { return r < q.ready_at; });
  wake_at(p.ready_at);
  retry_queue_.insert(it, std::move(p));
}

void Dispatcher::requeue_retries() {
  while (retry_due()) {
    PendingRetry p = std::move(retry_queue_.front());
    retry_queue_.erase(retry_queue_.begin());
    if (queue_.size() >= queue_.depth()) {
      // Full queue: postpone instead of burning an attempt on a
      // guaranteed reject. The backoff keeps the retry alive until
      // dispatches drain the queue.
      p.ready_at = gpp_.now() + policy_.backoff_base;
      schedule_retry(std::move(p));
      break;
    }
    (void)enqueue(std::move(p.job));
  }
  if (!retry_queue_.empty()) wake_at(retry_queue_.front().ready_at);
}

void Dispatcher::fail_unservable() {
  if (quarantined_count() == 0) return;

  for (std::size_t k = 0; k < kNumJobKinds; ++k) {
    const auto kind = static_cast<JobKind>(k);
    bool has_worker = false;
    bool servable = false;
    for (const auto& w : workers_) {
      if (w.kind != kind) continue;
      has_worker = true;
      servable |= !w.quarantined;
    }
    // Kinds with no worker at all are the caller's configuration
    // problem, same as before faults existed — only drain kinds whose
    // entire worker set got quarantined, so finished() stays reachable.
    if (!has_worker || servable) continue;
    for (;;) {
      auto doomed = queue_.take(kind, ~u32{0});
      if (doomed.empty()) break;
      for (const auto& job : doomed) {
        fail_job(job, fault::FaultClass::kTimeout);
      }
    }
    for (std::size_t i = retry_queue_.size(); i-- > 0;) {
      if (retry_queue_[i].job.kind != kind) continue;
      fail_job(retry_queue_[i].job, fault::FaultClass::kTimeout);
      retry_queue_.erase(retry_queue_.begin() +
                         static_cast<std::ptrdiff_t>(i));
    }
  }
}

void Dispatcher::state(snap::Fields& f) {
  const std::size_t workers = workers_.size();
  const auto job = [&f, workers](Job& j) { job_state(f, j, workers); };
  queue_.state(f, workers);

  f.expect<u32>("workers", workers);
  u32 batched = 0;
  for (Worker& wk : workers_) {
    u8 kind = static_cast<u8>(wk.kind);
    f.field("kind", kind);
    if (kind != static_cast<u8>(wk.kind)) {
      // A slot-backed worker's kind is runtime state — adopt the
      // image's assignment (the ReconfigSlot section restores the
      // matching active candidate). Static workers still reject.
      if (!wk.retargetable || kind >= kNumJobKinds) {
        f.fail("worker kind mismatch");
      }
      wk.kind = static_cast<JobKind>(kind);
    }
    wk.backend->state(f);
    f.field("installed_batch", wk.installed_batch);
    bool busy = wk.busy();  // a restore checks it against the batch below
    f.field("busy", busy);
    f.field("busy_since", wk.busy_since);
    f.field("consecutive_faults", wk.consecutive_faults);
    f.field("quarantined", wk.quarantined);
    f.field("quarantine_since", wk.quarantine_since);
    // Slot-backed workers only, so farm-less images stay byte-identical
    // to the pre-farm format.
    if (wk.retargetable) f.field("reconfiguring", wk.reconfiguring);
    f.field("jobs", wk.stats.jobs);
    f.field("launches", wk.stats.launches);
    f.field("installs", wk.stats.installs);
    f.field("busy_cycles", wk.stats.busy_cycles);
    f.field("faults", wk.stats.faults);
    f.list("batch_size", wk.batch, job);
    if (wk.batch.size() > wk.max_batch) {
      f.fail("'batch_size' is " + std::to_string(wk.batch.size()) + " on " +
             wk.backend->name() + ", above its max_batch " +
             std::to_string(wk.max_batch));
    }
    if (busy != wk.busy()) {
      f.fail(std::string("'busy' is ") + (busy ? "true" : "false") +
             " on " + wk.backend->name() + ", which holds " +
             std::to_string(wk.batch.size()) + " jobs");
    }
    batched += static_cast<u32>(wk.batch.size());
  }

  // Remaining open-loop schedule only — ingested arrivals live in the
  // queue / on workers already, so a restored schedule starts at its
  // head.
  const std::size_t left =
      f.count("schedule_left", schedule_.size() - next_arrival_);
  if (f.restoring()) {
    schedule_.assign(left, Job{});
    next_arrival_ = 0;
  }
  for (std::size_t i = next_arrival_; i < schedule_.size(); ++i) {
    job(schedule_[i]);
  }
  if (!std::is_sorted(schedule_.begin() + next_arrival_, schedule_.end(),
                      arrives_before)) {
    f.fail("'schedule_left' jobs out of arrival order");
  }
  f.field("arrival_due", arrival_due_);
  // Every launched job sits in its worker's batch.
  f.expect<u32>("in_flight", batched);
  f.field("completed", completed_);

  f.list("retry_count", retry_queue_, [&f, &job](PendingRetry& p) {
    f.field("ready_at", p.ready_at);
    job(p.job);
  });
  if (!std::is_sorted(retry_queue_.begin(), retry_queue_.end(),
                      [](const PendingRetry& a, const PendingRetry& b) {
                        return a.ready_at < b.ready_at;
                      })) {
    f.fail("'retry_count' entries out of ready_at order");
  }
  f.field("svc_faults", faults_);
  f.field("retries", retries_);
  f.field("failed", failed_);
  f.field("irq_recoveries", irq_recoveries_);
  if (slots_ != nullptr) f.field("slots_due", slots_due_);
}

void Dispatcher::reset_run_counters() {
  queue_.reset_counters();
  for (Worker& wk : workers_) {
    wk.stats = WorkerStats{};
    wk.consecutive_faults = 0;
  }
  completed_ = 0;
  faults_ = 0;
  retries_ = 0;
  failed_ = 0;
  irq_recoveries_ = 0;
}

u32 Dispatcher::in_flight() const {
  u32 n = 0;
  for (const auto& w : workers_) n += static_cast<u32>(w.batch.size());
  return n;
}

u32 Dispatcher::quarantined_count() const {
  u32 n = 0;
  for (const auto& w : workers_) n += w.quarantined ? 1 : 0;
  return n;
}

u64 Dispatcher::worker_quarantined_cycles(std::size_t i, Cycle wall) const {
  const Worker& w = workers_.at(i);
  return w.quarantined ? wall - w.quarantine_since : 0;
}

}  // namespace ouessant::svc
