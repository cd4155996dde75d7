#include "fleet/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/flight.hpp"
#include "obs/profile.hpp"
#include "obs/tracer.hpp"

namespace ouessant::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// FNV-1a over little-endian u64s: the per-shard reproducibility digest.
// Order-sensitive by construction, so two runs agree iff they completed
// the same jobs with the same latencies in the same order — the
// property raw sample-vector comparison used to prove, without
// retaining the vectors.
constexpr u64 kFnvOffset = 14695981039346656037ull;
constexpr u64 kFnvPrime = 1099511628211ull;

u64 fnv1a_u64(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Per-shard observability state. Declared BEFORE the service in
/// LiveShard so the service (whose components hold raw pointers into
/// these objects) is destroyed first.
struct ShardObs {
  obs::QuantileSketch sketch;
  std::unique_ptr<obs::EventTracer> prof_tracer;
  std::unique_ptr<obs::SamplingProfiler> profiler;
  std::unique_ptr<obs::SloMonitor> slo;
  std::unique_ptr<obs::FlightRecorder> flight;
  u64 digest = kFnvOffset;
};

struct LiveShard {
  u32 index = 0;
  u64 seed = 0;
  ShardObs obs;
  std::unique_ptr<svc::OffloadService> service;
};

/// Build a shard stack, warm-boot it from @p image, arm its telemetry.
/// Observability is wired AFTER restore (the template image carries no
/// recorder state — arming is pure host wiring) and before begin().
std::unique_ptr<LiveShard> fork_shard(const FleetConfig& cfg,
                                      const snap::Snapshot& image,
                                      u32 index,
                                      svc::LatencyStats* exact_e2e) {
  auto ls = std::make_unique<LiveShard>();
  ls->index = index;
  ls->seed = cfg.base_seed + index;
  ls->obs.sketch = obs::QuantileSketch(cfg.obs.sketch_error);
  ls->service = std::make_unique<svc::OffloadService>(cfg.service);
  svc::OffloadService& shard = *ls->service;
  // Per-job latencies stream into the sketch via the observer below;
  // retaining them in the report too would put the O(jobs) memory back.
  shard.set_latency_recording(false);
  shard.restore(image);

  if (cfg.obs.flight) {
    ls->obs.flight = std::make_unique<obs::FlightRecorder>(
        shard.soc().kernel(), cfg.obs.flight_capacity);
    shard.attach_flight_recorder(*ls->obs.flight);
  }
  if (cfg.obs.profiler) {
    ls->obs.prof_tracer =
        std::make_unique<obs::EventTracer>(shard.soc().kernel());
    ls->obs.profiler = std::make_unique<obs::SamplingProfiler>(
        *ls->obs.prof_tracer, cfg.obs.profile);
    shard.attach_profiler(*ls->obs.profiler);
  }
  if (cfg.obs.slo) {
    ls->obs.slo = std::make_unique<obs::SloMonitor>(cfg.obs.slo_config);
  }

  ShardObs* ob = &ls->obs;
  shard.set_job_observer([ob, exact_e2e](const svc::Job& job) {
    const u64 e2e = job.end_to_end();
    ob->digest = fnv1a_u64(ob->digest, job.id);
    ob->digest = fnv1a_u64(ob->digest, job.queue_wait());
    ob->digest = fnv1a_u64(ob->digest, e2e);
    ob->sketch.add(e2e);
    if (ob->slo != nullptr) {
      ob->slo->record_latency(static_cast<u32>(job.prio), job.complete, e2e);
    }
    if (exact_e2e != nullptr) exact_e2e->add(e2e);
  });
  if (ls->obs.slo != nullptr) {
    sim::Kernel* kernel = &shard.soc().kernel();
    shard.dispatcher().set_failure_hook([ob, kernel](const svc::Job& job) {
      ob->slo->record(static_cast<u32>(job.prio), kernel->now(), false);
    });
  }

  svc::WorkloadConfig load = cfg.shard_load;
  load.seed = ls->seed;
  shard.begin(load, /*warm=*/true);
  return ls;
}

}  // namespace

FleetReport run_fleet(const FleetConfig& cfg) {
  if (cfg.shards == 0) {
    throw ConfigError("run_fleet: shards must be >= 1");
  }
  if (cfg.obs.slo &&
      cfg.obs.slo_config.classes.size() != svc::kNumPriorities) {
    throw ConfigError(
        "run_fleet: slo_config needs one objective per tenant class "
        "(svc::kNumPriorities)");
  }
  FleetReport fleet;
  fleet.shards = cfg.shards;
  fleet.e2e_sketch = obs::QuantileSketch(cfg.obs.sketch_error);

  // Cold boot: build the template stack and serve the warm-up workload.
  // This is the path every shard would pay without snapshots.
  const auto cold_t0 = Clock::now();
  svc::OffloadService tmpl(cfg.service);
  tmpl.run(cfg.warmup);
  fleet.cold_boot_ms = ms_since(cold_t0);

  const snap::Snapshot image = tmpl.snapshot();
  fleet.snapshot_bytes = image.serialized_size();

  svc::LatencyStats* exact =
      cfg.obs.keep_exact_histogram ? &fleet.exact_e2e : nullptr;

  // Fork the shards. Each is an independent stack with its own kernel;
  // construction + restore + telemetry arming is the whole warm-boot
  // cost.
  std::vector<std::unique_ptr<LiveShard>> live;
  live.reserve(cfg.shards);
  const auto fork_t0 = Clock::now();
  for (u32 i = 0; i < cfg.shards; ++i) {
    live.push_back(fork_shard(cfg, image, i, exact));
  }
  fleet.fork_ms_per_shard =
      ms_since(fork_t0) / static_cast<double>(cfg.shards);

  fleet.shard_results.resize(cfg.shards);
  u64 retained_now = 0;

  // Retire a finished shard NOW: finish its report, fold its sketch /
  // SLO window / flight state into the fleet aggregates, then free the
  // whole stack. Folding order is whatever completion order the
  // workloads produce — safe, because every fold is commutative and
  // associative (sketch bucket adds, SLO count adds, scalar sums).
  auto retire = [&](std::unique_ptr<LiveShard>& ls) {
    ShardResult res;
    res.index = ls->index;
    res.seed = ls->seed;
    res.report = ls->service->finish();
    res.e2e_sketch = std::move(ls->obs.sketch);
    res.digest = ls->obs.digest;

    fleet.total_jobs += res.report.jobs;
    fleet.total_completed += res.report.completed;
    fleet.total_rejected += res.report.rejected;
    fleet.total_failed += res.report.failed;
    if (res.report.makespan() > 0) {
      fleet.throughput_jpmc +=
          static_cast<double>(res.report.completed) * 1e6 /
          static_cast<double>(res.report.makespan());
    }
    // The memory fix this layer exists to keep fixed: raw latency
    // samples must never accumulate per shard — everything streams
    // through the sketch. A non-zero count here means latency
    // recording leaked back on.
    const u64 retained = res.report.e2e.samples().size() +
                         res.report.wait.samples().size() +
                         res.report.service.samples().size();
    if (retained > 0) {
      throw SimError("run_fleet: shard " + std::to_string(res.index) +
                     " retained " + std::to_string(retained) +
                     " raw latency samples (sketch streaming bypassed)");
    }
    retained_now += retained;
    fleet.peak_retained_samples =
        std::max(fleet.peak_retained_samples, retained_now);

    fleet.e2e_sketch.merge(res.e2e_sketch);
    if (ls->obs.slo != nullptr) fleet.slo.merge(ls->obs.slo->report());
    if (ls->obs.flight != nullptr && ls->obs.flight->triggered()) {
      ++fleet.flight_triggers;
      res.flight_triggered = true;
      res.flight_reason = ls->obs.flight->reason();
      if (!cfg.obs.flight_dump_stem.empty()) {
        const std::string path = cfg.obs.flight_dump_stem + "_shard" +
                                 std::to_string(res.index) + ".flight.json";
        ls->obs.flight->write_json(path);
        fleet.flight_dumps.push_back(path);
      }
    }
    fleet.shard_results[res.index] = std::move(res);
    ls.reset();  // free the stack: live memory tracks unfinished shards
  };

  // Round-robin drive: one service pass per shard per lap. Simulated
  // clocks are independent, so the interleaving is pure host
  // scheduling — no shard can observe another.
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (auto& ls : live) {
      if (ls == nullptr) continue;
      if (!ls->service->finished() && !ls->service->step()) {
        all_done = false;
        continue;
      }
      retire(ls);
    }
  }

  if (!cfg.obs.slo_report_path.empty() && cfg.obs.slo) {
    fleet.slo.write_json(cfg.obs.slo_report_path);
  }

  if (cfg.verify_reproducible) {
    // A second clone with shard 0's seed must reproduce shard 0's run
    // bit-for-bit: same completions, same clocks, same per-job latency
    // digest. The redo runs UNARMED (no profiler/SLO/flight), so a pass
    // here is also the passivity proof in miniature: telemetry arming
    // on shard 0 did not move its simulated clock.
    FleetConfig redo_cfg = cfg;
    redo_cfg.obs = FleetObsConfig{};
    redo_cfg.obs.sketch_error = cfg.obs.sketch_error;
    auto redo = fork_shard(redo_cfg, image, 0, nullptr);
    while (!redo->service->step()) {
    }
    const svc::ServiceReport again = redo->service->finish();
    const u64 redo_digest = redo->obs.digest;
    const svc::ServiceReport& first = fleet.shard_results.front().report;
    fleet.reproducible = again.completed == first.completed &&
                         again.rejected == first.rejected &&
                         again.start == first.start &&
                         again.end == first.end &&
                         redo_digest == fleet.shard_results.front().digest;
  }

  return fleet;
}

}  // namespace ouessant::fleet
