#include "svc/service.hpp"

#include <algorithm>
#include <string>

#include "codec/jpeg.hpp"
#include "rac/dequant.hpp"
#include "rac/dft.hpp"
#include "rac/fir.hpp"
#include "rac/idct.hpp"
#include "svc/backend.hpp"

namespace ouessant::svc {

namespace {

/// Worker i's staging window in SRAM: program image at the base, input
/// blocks at +256 KiB, output blocks at +512 KiB — far above anything
/// the rest of the map uses, 1 MiB stride per worker.
constexpr Addr kWorkerBase = 0x4010'0000;
constexpr Addr kWorkerStride = 0x0010'0000;
constexpr Addr kWorkerInOff = 0x0004'0000;
constexpr Addr kWorkerOutOff = 0x0008'0000;

/// Chain workers pack two program images and a store-and-forward bounce
/// buffer into the same 1 MiB window: tail microcode 8 KiB above the
/// head's, bounce blocks in the window's top quarter.
constexpr Addr kChainTailProgOff = 0x0000'2000;
constexpr Addr kChainBounceOff = 0x000C'0000;

/// The bitstream repository sits above the worker windows, in the top
/// 4 MiB of the 16 MiB SRAM — the ICAP fetches partial bitstreams from
/// here over the shared bus.
constexpr Addr kBitstreamBase = 0x40C0'0000;
constexpr u32 kBitstreamSpan = 0x0040'0000;

Addr worker_base(std::size_t wi) {
  return kWorkerBase + static_cast<Addr>(wi) * kWorkerStride;
}

std::unique_ptr<core::Rac> make_rac(sim::Kernel& kernel, JobKind kind,
                                    const std::string& name) {
  switch (kind) {
    case JobKind::kIdct:
    case JobKind::kJpegBlock:
      return std::make_unique<rac::IdctRac>(kernel, name);
    case JobKind::kDft:
      return std::make_unique<rac::DftRac>(kernel, name,
                                           rac::DftRacConfig{.points = 32});
    case JobKind::kFir:
      return std::make_unique<rac::FirRac>(kernel, name, fir_service_taps(),
                                           block_words(JobKind::kFir));
    case JobKind::kJpegChain:
      throw ConfigError(
          "OffloadService: kJpegChain workers are two-OCP pairs — configure "
          "them via ServiceConfig::chains, not ocps");
  }
  throw ConfigError("OffloadService: unknown job kind");
}

/// The workload an explicit arrival schedule stands for: open loop, one
/// job per arrival, kinds in first-seen order, defaults elsewhere. It is
/// what validate() checks and what the "svc" snapshot section records.
WorkloadConfig schedule_workload(const std::vector<Job>& arrivals) {
  WorkloadConfig w;
  w.mode = LoadMode::kOpenLoop;
  w.jobs = static_cast<u32>(arrivals.size());
  w.kinds.clear();
  for (const Job& job : arrivals) {
    if (std::find(w.kinds.begin(), w.kinds.end(), job.kind) == w.kinds.end()) {
      w.kinds.push_back(job.kind);
    }
  }
  return w;
}

}  // namespace

void ServiceReport::add_to(exp::Result& result) const {
  result.add_metric("jobs", jobs);
  result.add_metric("completed", completed);
  result.add_metric("rejected", rejected);
  result.add_metric("makespan_cycles", makespan());
  if (makespan() > 0) {
    result.add_metric("throughput_jpmc", static_cast<double>(completed) *
                                             1e6 /
                                             static_cast<double>(makespan()));
  }
  result.add_metric("queue_peak", static_cast<u64>(peak_depth));
  result.add_metric("batches", batches);
  if (batches > 0) {
    result.add_metric("jobs_per_batch", static_cast<double>(completed) /
                                            static_cast<double>(batches));
  }
  result.add_metric("installs", installs);
  wait.add_metrics(result, "wait");
  service.add_metrics(result, "svc");
  e2e.add_metrics(result, "e2e");
  if (farm) {
    result.add_metric("swaps", swaps_completed);
    result.add_metric("swaps_started", swaps_started);
    result.add_metric("preemptions", preemptions);
    result.add_metric("preempted_jobs", preempted_jobs);
    result.add_metric("icap_busy_cycles", icap_busy_cycles);
    result.add_metric("bs_cache_hits", cache_hits);
    result.add_metric("bs_cache_misses", cache_misses);
  }
  if (chained) {
    result.add_metric("link_words", link_words);
    result.add_metric("link_busy_cycles", link_busy_cycles);
  }
  if (fault_aware) {
    result.add_metric("availability", availability());
    result.add_metric("injected", injected);
    result.add_metric("faults", faults);
    result.add_metric("retries", retries);
    result.add_metric("failed", failed);
    result.add_metric("irq_recoveries", irq_recoveries);
    result.add_metric("quarantined", static_cast<u64>(quarantined));
  }
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const double pct =
        makespan() > 0 ? static_cast<double>(workers[i].busy_cycles) * 100.0 /
                             static_cast<double>(makespan())
                       : 0.0;
    result.add_metric("util_ocp" + std::to_string(i) + "_pct", pct);
  }
}

OffloadService::OffloadService(ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      soc_(cfg_.soc),
      irq_ctl_(soc_.kernel(), "svc_irqctl", kSvcIrqCtlBase),
      dispatcher_(soc_.kernel(), "svc_dispatcher", soc_.cpu(), soc_.sram(),
                  irq_ctl_, kSvcIrqCtlBase, cfg_.queue_depth) {
  if (cfg_.ocps.empty() && !cfg_.slots.enabled() && cfg_.chains.empty()) {
    throw ConfigError("OffloadService: at least one OCP worker required");
  }
  const std::size_t slot_count = cfg_.slots.enabled() ? cfg_.slots.count : 0;
  const std::size_t windows =
      cfg_.ocps.size() + slot_count + cfg_.chains.size();
  if ((slot_count > 0 || !cfg_.chains.empty()) &&
      worker_base(windows) > kBitstreamBase) {
    throw ConfigError(
        "OffloadService: worker windows would overlap the bitstream store");
  }
  // Worker i's window ends where worker i+1's begins; each must lie
  // inside the SRAM, or its first staged block fails mid-run.
  const u64 sram_end = u64{cfg_.soc.sram_base} + cfg_.soc.sram_bytes;
  for (std::size_t i = 0; i < windows; ++i) {
    if (worker_base(i + 1) > sram_end) {
      throw ConfigError("OffloadService: worker " + std::to_string(i) +
                        "'s window " + hex(worker_base(i)) +
                        " leaves the SRAM, which ends at " +
                        hex(static_cast<u32>(sram_end)));
    }
  }
  soc_.bus().connect_slave(irq_ctl_, kSvcIrqCtlBase, cpu::kIrqCtlSpanBytes);
  for (std::size_t i = 0; i < cfg_.ocps.size(); ++i) {
    const OcpSpec& spec = cfg_.ocps[i];
    const std::string name = std::string("svc_") + kind_name(spec.kind) +
                             std::to_string(i);
    racs_.push_back(make_rac(soc_.kernel(), spec.kind, name + "_rac"));
    add_ocp_worker(soc_.add_ocp(*racs_.back()), spec.kind, spec.max_batch);
  }

  if (cfg_.slots.enabled()) build_slot_farm();
  if (!cfg_.chains.empty()) build_chains();

  if (cfg_.faults.armed()) {
    // A spec aimed past the stack would be armed and never fire.
    for (const fault::FaultSpec& spec : cfg_.faults.specs) {
      const bool irq = spec.kind == fault::FaultKind::kIrqDrop;
      const std::size_t targets =
          irq ? irq_ctl_.source_count() : soc_.ocp_count();
      if (spec.ocp >= 0 && static_cast<std::size_t>(spec.ocp) >= targets) {
        throw ConfigError(std::string("OffloadService: ") +
                          fault::kind_name(spec.kind) + "@ocp=" +
                          std::to_string(spec.ocp) + " names no " +
                          (irq ? "IRQ source" : "OCP") + " of the " +
                          std::to_string(targets) + " it arms");
      }
    }
    injector_ = std::make_unique<fault::Injector>(cfg_.faults);
    injector_->arm_bus(soc_.bus());
    injector_->arm_irq(irq_ctl_);
    for (std::size_t i = 0; i < soc_.ocp_count(); ++i) {
      injector_->arm_ocp(static_cast<u32>(i), soc_.ocp(i));
    }
  }
  dispatcher_.set_retry_policy(cfg_.retry);
}

u32 OffloadService::add_ocp_worker(core::Ocp& ocp, JobKind kind,
                                   u32 max_batch) {
  const Addr base = worker_base(dispatcher_.worker_count());
  const u32 words = max_batch * block_words(kind);
  return dispatcher_.add_worker(
      std::make_unique<OcpBackend>(
          soc_.cpu(), soc_.sram(), ocp,
          drv::SessionLayout{.prog_base = base,
                             .in_base = base + kWorkerInOff,
                             .out_base = base + kWorkerOutOff,
                             .in_words = words,
                             .out_words = words},
          block_words(kind), irq_ctl_),
      kind, max_batch);
}

void OffloadService::build_slot_farm() {
  const SlotFarmConfig& fc = cfg_.slots;
  if (fc.candidates.empty()) {
    throw ConfigError("OffloadService: slot farm needs candidate kinds");
  }
  if (!fc.initial.empty() && fc.initial.size() != fc.count) {
    throw ConfigError("OffloadService: slots.initial must name every slot");
  }

  bitstreams_ = std::make_unique<dpr::BitstreamStore>(soc_.sram(),
                                                      kBitstreamBase,
                                                      kBitstreamSpan);
  icap_ = std::make_unique<dpr::IcapPort>(
      soc_.kernel(), "svc_icap", soc_.bus(),
      dpr::IcapPortConfig{.icap = fc.icap,
                          .mode = fc.shared_icap ? dpr::IcapMode::kBusMaster
                                                 : dpr::IcapMode::kFree,
                          .burst_words = fc.icap_burst_words});
  if (fc.cache_bytes > 0) {
    bitstream_cache_ = std::make_unique<dpr::BitstreamCache>(
        soc_.kernel(), "svc_icap_cache", fc.cache_bytes);
  }
  slot_mgr_ = std::make_unique<SlotManager>(soc_.kernel(), "svc_slots",
                                            dispatcher_, *icap_, *bitstreams_,
                                            bitstream_cache_.get(), fc);

  for (u32 si = 0; si < fc.count; ++si) {
    const JobKind initial = fc.initial.empty()
                                ? fc.candidates[si % fc.candidates.size()]
                                : fc.initial[si];
    // Candidate 0 is the region's initial configuration — rotate the
    // candidate list so each slot boots resident on its initial kind.
    const auto pivot =
        std::find(fc.candidates.begin(), fc.candidates.end(), initial);
    if (pivot == fc.candidates.end()) {
      throw ConfigError(
          "OffloadService: slot initial kind is not a farm candidate");
    }
    std::vector<JobKind> kinds(pivot, fc.candidates.end());
    kinds.insert(kinds.end(), fc.candidates.begin(), pivot);

    const std::string base_name = "svc_slot" + std::to_string(si);
    std::vector<core::Rac*> cands;
    for (JobKind k : kinds) {
      racs_.push_back(make_rac(soc_.kernel(), k,
                               base_name + "_" + kind_name(k)));
      cands.push_back(racs_.back().get());
    }
    regions_.push_back(std::make_unique<core::ReconfigSlot>(
        soc_.kernel(), base_name, cands, fc.icap));
    const u32 worker = add_ocp_worker(soc_.add_ocp(*regions_.back()),
                                      initial, fc.max_batch);

    // One partial bitstream per (slot, candidate): bitstreams are
    // region-specific, so two slots hosting the same kind carry distinct
    // images (and distinct cache entries).
    std::vector<u32> images;
    images.reserve(kinds.size());
    for (std::size_t j = 0; j < kinds.size(); ++j) {
      images.push_back(bitstreams_->add_image(
          base_name + "." + kind_name(kinds[j]),
          core::ReconfigSlot::bitstream_bytes_for(
              cands[j]->resource_tree().total())));
    }
    slot_mgr_->add_slot(*regions_.back(), worker, std::move(kinds),
                        std::move(images));
  }
}

void OffloadService::build_chains() {
  // Both halves of the chain are fixed by the service contract: the
  // dequantize table is jpeg_chain_quality()'s, the reorder map the
  // standard zigzag — exactly what reference_output(kJpegChain) models.
  rac::DequantConfig dq;
  dq.quant = codec::quant_table(jpeg_chain_quality());
  dq.zigzag = codec::zigzag_order();

  for (std::size_t ci = 0; ci < cfg_.chains.size(); ++ci) {
    const ChainSpec& spec = cfg_.chains[ci];
    if (spec.link_cycles_per_word == 0) {
      throw ConfigError("OffloadService: link_cycles_per_word must be >= 1");
    }
    const std::string name = "svc_chain" + std::to_string(ci);
    racs_.push_back(std::make_unique<rac::DequantRac>(
        soc_.kernel(), name + "_dq_rac", dq));
    core::Ocp& head = soc_.add_ocp(*racs_.back());
    racs_.push_back(
        std::make_unique<rac::IdctRac>(soc_.kernel(), name + "_idct_rac"));
    core::Ocp& tail = soc_.add_ocp(*racs_.back());
    links_.push_back(std::make_unique<fifo::ChainLink>(
        soc_.kernel(), name + "_link",
        fifo::ChainLinkConfig{.cycles_per_word = spec.link_cycles_per_word}));

    const Addr base = worker_base(dispatcher_.worker_count());
    dispatcher_.add_worker(
        std::make_unique<ChainBackend>(
            soc_.cpu(), soc_.sram(), head, tail, *links_.back(),
            drv::ChainLayout{.head_prog_base = base,
                             .tail_prog_base = base + kChainTailProgOff,
                             .in_base = base + kWorkerInOff,
                             .bounce_base = base + kChainBounceOff,
                             .out_base = base + kWorkerOutOff,
                             .block_words = block_words(JobKind::kJpegChain),
                             .max_batch = spec.max_batch},
            spec.mode, irq_ctl_),
        JobKind::kJpegChain, spec.max_batch);
  }
}

obs::Gauges OffloadService::gauges() {
  obs::Gauges gauges = {
      {.name = "queue_depth", .width = 16, .unit = "jobs",
       .desc = "jobs waiting in the bounded dispatch queue",
       .read = [this] {
         return static_cast<u64>(dispatcher_.queue().size());
       }},
      {.name = "in_flight", .width = 16, .unit = "jobs",
       .desc = "jobs launched on some worker, not yet retired",
       .read = [this] { return static_cast<u64>(dispatcher_.in_flight()); }},
      {.name = "bus_granted", .width = 1, .unit = "bool",
       .desc = "interconnect grant active this cycle",
       .read = [this] { return static_cast<u64>(soc_.bus().granted_now()); }},
  };
  for (std::size_t i = 0; i < dispatcher_.worker_count(); ++i) {
    gauges.push_back(
        {.name = "ocp" + std::to_string(i) + "_busy", .width = 1,
         .unit = "bool",
         .desc = "worker " + std::to_string(i) + " serving a batch",
         .read = [this, i] {
           return static_cast<u64>(dispatcher_.worker_busy(i));
         }});
  }
  return gauges;
}

void OffloadService::attach_tracer(obs::EventTracer& tracer) {
  soc_.bus().set_tracer(&tracer);
  for (std::size_t i = 0; i < soc_.ocp_count(); ++i) {
    soc_.ocp(i).controller().set_tracer(&tracer);
    soc_.ocp(i).rac().set_tracer(&tracer);
  }
  if (icap_ != nullptr) icap_->set_tracer(&tracer);
  // Last, so the scheduler/job/worker tracks land after the hardware
  // ones and the per-session "drv.*" tracks get wired too.
  dispatcher_.set_tracer(&tracer);
}

void OffloadService::attach_profiler(obs::SamplingProfiler& prof) {
  dispatcher_.set_job_sampler(&prof);
}

void OffloadService::attach_flight_recorder(obs::FlightRecorder& flight) {
  for (std::size_t i = 0; i < soc_.ocp_count(); ++i) {
    soc_.ocp(i).controller().set_tracer(&flight);
    soc_.ocp(i).rac().set_tracer(&flight);
  }
  if (icap_ != nullptr) icap_->set_tracer(&flight);
  dispatcher_.set_flight_recorder(&flight);
  flight_ = &flight;
}

void OffloadService::validate(const WorkloadConfig& workload) const {
  if (workload.jobs == 0) {
    throw ConfigError("OffloadService: workload submits no jobs");
  }
  for (JobKind kind : workload.kinds) {
    // A slot farm accepts any *candidate* kind: an adaptive policy swaps
    // the region in when demand appears; a static farm refuses the jobs
    // at submission (the measured ablation baseline — a fixed-function
    // device returning ENOSYS, not a configuration error).
    if (!dispatcher_.servable(kind) &&
        (slot_mgr_ == nullptr || !slot_mgr_->candidate(kind))) {
      throw ConfigError(std::string("OffloadService: no worker serves ") +
                        kind_name(kind) + " jobs — they would wait forever");
    }
  }
  if (workload.mode == LoadMode::kClosedLoop && workload.clients == 0) {
    throw ConfigError("OffloadService: closed loop needs >= 1 client");
  }
}

void OffloadService::install_completion_hook() {
  dispatcher_.set_completion_hook([this](const Job& job) {
    if (record_latency_) {
      rep_.wait.add(job.queue_wait());
      rep_.service.add(job.service());
      rep_.e2e.add(job.end_to_end());
    }
    if (job_observer_) job_observer_(job);
    // Closed loop: the client whose job just finished submits its next
    // one immediately (zero think time — a pure throughput probe).
    if (workload_.mode == LoadMode::kClosedLoop && issued_ < workload_.jobs) {
      dispatcher_.submit_now(
          make_job(issued_++, soc_.cpu().now(), workload_, rng_));
    }
  });
}

void OffloadService::begin(const WorkloadConfig& workload, bool warm) {
  start(workload, warm, {});
}

void OffloadService::start(const WorkloadConfig& workload, bool warm,
                           std::vector<Job> arrivals) {
  if (ran_ || began_) {
    throw ConfigError("OffloadService: run()/begin() is single-shot");
  }
  validate(workload);
  ran_ = true;
  began_ = true;
  workload_ = workload;
  rng_ = util::Rng(workload.seed);
  issued_ = 0;
  rep_ = ServiceReport{};
  rep_.jobs = workload.jobs;

  cpu::Gpp& gpp = soc_.cpu();
  if (warm) {
    // A warm-booted clone inherits the IRQ configuration, the resident
    // microcode and the cache contents from the snapshot; only the
    // accounting restarts.
    dispatcher_.reset_run_counters();
    if (slot_mgr_ != nullptr) slot_mgr_->reset_run_counters();
    base_ = lifetime();
  } else {
    dispatcher_.configure_irqs();  // first timed accesses of the run
  }
  rep_.start = gpp.now();

  install_completion_hook();

  if (workload.mode == LoadMode::kClosedLoop) {
    const u32 initial = std::min<u64>(workload.clients, workload.jobs);
    for (u32 c = 0; c < initial; ++c) {
      dispatcher_.submit_now(make_job(issued_++, gpp.now(), workload, rng_));
    }
    return;
  }
  if (arrivals.empty()) {
    arrivals = open_loop_arrivals(workload, rng_, gpp.now() + 1);
  }
  dispatcher_.load_schedule(std::move(arrivals));
  issued_ = workload.jobs;
}

/// Per-wait deadlock guard handed to Kernel::run_until.
constexpr u64 kWaitTimeoutCycles = 10'000'000;

bool OffloadService::step() {
  if (!began_) throw ConfigError("OffloadService: step() before begin()");
  if (dispatcher_.finished()) return true;
  dispatcher_.service_once();
  if (dispatcher_.finished()) return true;
  soc_.kernel().run_until([this] { return dispatcher_.service_due(); },
                          kWaitTimeoutCycles);
  return dispatcher_.finished();
}

ServiceReport OffloadService::finish() {
  if (!began_) throw ConfigError("OffloadService: finish() before begin()");
  began_ = false;

  const Lifetime now = lifetime();
  rep_.end = soc_.cpu().now();
  rep_.completed = dispatcher_.completed();
  rep_.rejected = dispatcher_.rejected();
  rep_.peak_depth = dispatcher_.queue().peak_depth();
  rep_.farm = slot_mgr_ != nullptr;
  if (rep_.farm) {
    rep_.swaps_started = slot_mgr_->swaps_started();
    rep_.swaps_completed = slot_mgr_->swaps_completed();
    rep_.preemptions = slot_mgr_->preemptions();
    rep_.preempted_jobs = slot_mgr_->preempted_jobs();
    rep_.icap_busy_cycles = now.icap_busy - base_.icap_busy;
    if (bitstream_cache_ != nullptr) {
      rep_.cache_hits = bitstream_cache_->hits();
      rep_.cache_misses = bitstream_cache_->misses();
    }
  }
  rep_.chained = !links_.empty();
  rep_.link_words = now.link_words - base_.link_words;
  rep_.link_busy_cycles = now.link_busy - base_.link_busy;
  rep_.fault_aware = cfg_.faults.armed() || cfg_.retry.armed();
  if (rep_.fault_aware) {
    rep_.injected = now.injected - base_.injected;
    rep_.faults = dispatcher_.faults();
    rep_.retries = dispatcher_.retries();
    rep_.failed = dispatcher_.failed();
    rep_.irq_recoveries = dispatcher_.irq_recoveries();
    rep_.quarantined = dispatcher_.quarantined_count();
  }
  for (std::size_t i = 0; i < dispatcher_.worker_count(); ++i) {
    const WorkerStats& ws = dispatcher_.worker_stats(i);
    rep_.workers.push_back(ws);
    rep_.batches += ws.launches;
    rep_.installs += ws.installs;
  }
  dispatcher_.set_completion_hook(nullptr);
  return std::move(rep_);
}

OffloadService::Lifetime OffloadService::lifetime() const {
  Lifetime l;
  if (icap_ != nullptr) l.icap_busy = icap_->busy_cycles_total();
  for (const auto& link : links_) {
    l.link_words += link->words_moved();
    l.link_busy += link->busy_cycles();
  }
  if (injector_ != nullptr) l.injected = injector_->injected();
  return l;
}

ServiceReport OffloadService::run(const WorkloadConfig& workload) {
  begin(workload);
  while (!step()) {
  }
  return finish();
}

ServiceReport OffloadService::run_schedule(std::vector<Job> arrivals) {
  // An empty schedule stands for a workload of no jobs: validate()
  // refuses it before anything runs.
  const WorkloadConfig workload = schedule_workload(arrivals);
  start(workload, /*warm=*/false, std::move(arrivals));
  while (!step()) {
  }
  return finish();
}

snap::Snapshot OffloadService::snapshot() const {
  snap::Snapshot s = soc_.snapshot();
  auto& self = const_cast<OffloadService&>(*this);  // a save only reads
  s.write("svc", 2, [&self](snap::Fields& f) { self.state(f); });
  return s;
}

void OffloadService::restore(const snap::Snapshot& snap) {
  if (ran_ || began_) {
    throw ConfigError("OffloadService: restore() needs a fresh instance");
  }
  snap.read("svc", 2, [&](snap::Fields& f) {
    // The section's version is checked; now the SoC restore validates
    // the fingerprint and walks every kernel component — the dispatcher
    // and IRQ controller included — before the service's own fields.
    soc_.restore(snap);
    state(f);
  });
  ran_ = began_;
  if (began_) install_completion_hook();
}

void OffloadService::state(snap::Fields& f) {
  f.field("began", began_);
  f.field_as<u8>("mode", workload_.mode, LoadMode::kClosedLoop);
  f.field("jobs", workload_.jobs);
  f.field("mean_gap", workload_.mean_gap);
  f.field("clients", workload_.clients);
  std::vector<u32> kinds;
  for (JobKind k : workload_.kinds) kinds.push_back(static_cast<u32>(k));
  f.field("kinds", kinds);
  if (f.restoring()) {
    workload_.kinds.clear();
    for (u32 k : kinds) {
      if (k >= kNumJobKinds) f.fail("bad workload kind " + std::to_string(k));
      workload_.kinds.push_back(static_cast<JobKind>(k));
    }
  }
  f.field("high_fraction", workload_.high_fraction);
  f.field("seed", workload_.seed);

  auto rng = rng_.state();
  f.field("rng", std::span(rng));
  if (f.restoring()) rng_.restore_state(rng);
  f.field("issued", issued_);
  if (f.restoring()) rep_ = ServiceReport{};
  f.field("rep_jobs", rep_.jobs);
  f.field("rep_start", rep_.start);
  rep_.wait.state(f, "wait");
  rep_.service.state(f, "service");
  rep_.e2e.state(f, "e2e");
  f.expect<bool>("has_injector", injector_ != nullptr);
  if (injector_) injector_->state(f);
  f.expect<bool>("has_flight", flight_ != nullptr);
  if (flight_ != nullptr) flight_->state(f);
}

}  // namespace ouessant::svc
