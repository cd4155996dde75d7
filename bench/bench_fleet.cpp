// FLEET (fleet shard layer) — warm-boot cloning under measurement.
//
// fleet_warmboot: boot a template service stack cold, serve a warm-up
// workload, snapshot it, then fork >= 8 shards from the image
// (construction + restore + warm begin) and drive them round-robin,
// each with its own workload seed. The run records the aggregated fleet
// metrics (total throughput, availability, sketch-derived end-to-end
// quantiles), the image size, and the wall-time comparison that
// justifies the machinery: cold_boot_ms (template build + warm-up) vs
// fork_ms_per_shard (what each additional fleet member actually paid).
// run_fleet's built-in reproducibility check — a second clone at shard
// 0's seed must replay its report bit-for-bit — is a hard pass
// condition here. Latencies stream into mergeable quantile sketches as
// shards retire; the scenario asserts zero raw samples were retained
// (the O(jobs) -> O(sketch) memory fix).
//
// fleet_slo: the same fleet with every observability arm enabled and
// the fault injector live — bus ERROR beats at a fixed rate plus a
// permanently hung RAC on every shard. The SLO monitor classifies each
// job against per-tenant-class objectives, multi-window burn-rate
// alerts fire as errors land, flight recorders trip on the
// quarantine/watchdog path. Under --trace-events STEM the merged
// ouessant.slo.v1 report and the per-shard flight dumps are written next
// to STEM_fleet_slo_0 for ouessant_trace to render. Passivity is
// enforced by run_fleet's reproducibility redo, which replays shard 0
// UNARMED and must match the armed run's digest bit-for-bit.
//
// fleet_passivity is the fleet-observability guard: a 16-shard fleet
// with the hung RAC runs twice from the same template, unarmed and with
// every arm live (dense profiler, SLO monitors, flight recorders), both
// keeping the exact histogram. Every shard's digest, clock window and
// job counts, the merged sketch and the exact samples must be
// bit-identical; no raw sample may be retained; all 16 shards must trip
// their flight recorder; sketch quantiles must sit within
// alpha * exact + 1 of the exact ones; and arming may cost at most 1.5x
// the unarmed thread CPU time plus 0.25 s.
//
// Host clock readings make all three non-deterministic in the
// --compare-jobs sense; the simulated-side metrics are still seeded and
// exactly repeatable.
#include "scenarios.hpp"

#include <cmath>
#include <cstdio>
#include <string>

#include "fault/plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"

namespace ouessant::scenarios {
namespace {

/// Three heterogeneous batching workers behind a deep queue — the fleet
/// template every scenario in this family clones.
fleet::FleetConfig fleet_base(const exp::RunContext& ctx, u32 shards) {
  fleet::FleetConfig cfg;
  cfg.shards = shards;
  cfg.base_seed = ctx.seed;
  cfg.service.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
                      svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.service.queue_depth = 128;
  // Warm-up: enough traffic to install every worker's microcode,
  // exercise each IRQ path and reach steady state before the image is
  // taken — the serving time a forked shard gets for free.
  cfg.warmup.jobs = 240;
  cfg.warmup.mean_gap = 200.0;
  cfg.warmup.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft,
                      svc::JobKind::kFir};
  // Per-shard serving load (seed overridden per shard by run_fleet).
  cfg.shard_load = cfg.warmup;
  cfg.shard_load.jobs = 96;
  cfg.shard_load.high_fraction = 0.25;
  return cfg;
}

/// Flatten the sketch-derived latency block with LatencyStats-compatible
/// metric names (e2e_p50/_p95/... so FLEET rows read like every other
/// experiment), plus the sketch's own footprint.
void add_sketch_metrics(const obs::QuantileSketch& s, exp::Result& result) {
  result.add_metric("e2e_p50", s.percentile(50.0));
  result.add_metric("e2e_p95", s.percentile(95.0));
  result.add_metric("e2e_p99", s.percentile(99.0));
  result.add_metric("e2e_p999", s.percentile(99.9));
  result.add_metric("e2e_mean", s.mean());
  result.add_metric("e2e_max", s.max());
  result.add_metric("sketch_buckets", static_cast<u64>(s.bucket_count()));
}

/// Shared pass/fail block + metric flattening for a fleet report.
void add_fleet_metrics(const fleet::FleetReport& rep, exp::Result& result) {
  result.add_metric("shards", static_cast<u64>(rep.shards));
  result.add_metric("total_jobs", rep.total_jobs);
  result.add_metric("completed", rep.total_completed);
  result.add_metric("rejected", rep.total_rejected);
  result.add_metric("failed", rep.total_failed);
  result.add_metric("availability_pct", 100.0 * rep.availability());
  result.add_metric("throughput_jpmc", rep.throughput_jpmc);
  add_sketch_metrics(rep.e2e_sketch, result);
  result.add_metric("peak_retained_samples", rep.peak_retained_samples);
  result.add_metric("snapshot_bytes", rep.snapshot_bytes);
  result.add_metric("cold_boot_ms", rep.cold_boot_ms);
  result.add_metric("fork_ms_per_shard", rep.fork_ms_per_shard);
  result.add_metric("warmboot_speedup",
                    rep.fork_ms_per_shard > 0.0
                        ? rep.cold_boot_ms / rep.fork_ms_per_shard
                        : 0.0);
  result.add_metric("reproducible", static_cast<u64>(rep.reproducible));

  if (!rep.reproducible) {
    result.fail("shard replay at the fixed seed diverged from shard 0");
  }
  if (rep.total_completed + rep.total_rejected + rep.total_failed !=
      rep.total_jobs) {
    result.fail("fleet lost jobs");
  }
  if (rep.e2e_sketch.count() != rep.total_completed) {
    result.fail("sketch count " + std::to_string(rep.e2e_sketch.count()) +
                " != completed " + std::to_string(rep.total_completed));
  }
  if (rep.peak_retained_samples != 0) {
    result.fail("fleet retained raw latency samples (memory fix regressed)");
  }
  for (const fleet::ShardResult& shard : rep.shard_results) {
    if (shard.report.completed == 0) {
      result.fail("shard " + std::to_string(shard.index) +
                  " completed nothing");
    }
  }
}

/// The per-run artifact stem --trace-events hands this run
/// ("<STEM>_<scenario>_<point>"), or "" when it writes no files.
std::string artifact_stem(const exp::RunContext& ctx) {
  const std::string& path = ctx.trace_events_path;
  const std::string ext = ".trace.json";
  return path.ends_with(ext) ? path.substr(0, path.size() - ext.size())
                             : path;
}

/// Worker 0's RAC swallows every completion. The watchdog times the
/// hangs out, two strikes quarantine the worker — the flight-recorder
/// trigger path.
///
/// The warm-up deliberately avoids kIdct: quarantine is permanent and
/// snapshot-carried, so if the hung worker tripped during the template
/// run every shard would inherit it already sidelined and no shard
/// flight recorder could ever fire. Keeping worker 0 idle until the
/// shard phase makes each shard hit the hang itself.
void hang_worker0(fleet::FleetConfig& cfg) {
  cfg.warmup.kinds = {svc::JobKind::kDft, svc::JobKind::kFir};
  cfg.service.faults.add(
      {.kind = fault::FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.service.retry = svc::RetryPolicy{.max_attempts = 4,
                                       .backoff_base = 2048,
                                       .backoff_mult = 2,
                                       .quarantine_after = 2,
                                       .watchdog_cycles = 16'384};
}

/// Arm everything: the sampling profiler, one SLO objective per tenant
/// class (class == priority: high pays for a tight latency bound, normal
/// for a loose one) and flight recorders dumping to @p flight_stem
/// ("" = count triggers only).
void arm_observability(fleet::FleetConfig& cfg,
                       const std::string& flight_stem) {
  cfg.obs.profiler = true;
  cfg.obs.slo = true;
  cfg.obs.slo_config.classes = {
      obs::SloObjective{
          .name = "high", .latency_cycles = 20'000, .target = 0.99},
      obs::SloObjective{
          .name = "normal", .latency_cycles = 60'000, .target = 0.95}};
  cfg.obs.slo_config.long_window = 40'000;
  cfg.obs.slo_config.short_window = 5'000;
  cfg.obs.flight = true;
  cfg.obs.flight_capacity = 1024;
  cfg.obs.flight_dump_stem = flight_stem;
}

void run_warmboot(const exp::ParamMap& params, const exp::RunContext& ctx,
                  exp::Result& result) {
  fleet::FleetConfig cfg = fleet_base(ctx, params.get_u32("shards"));
  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  add_fleet_metrics(rep, result);
}

void run_slo(const exp::ParamMap& params, const exp::RunContext& ctx,
             exp::Result& result) {
  fleet::FleetConfig cfg = fleet_base(ctx, params.get_u32("shards"));

  // Fault pressure: a swept bus-ERROR rate on every access, which burns
  // the SLO error budget, plus the hung worker 0.
  const double p = static_cast<double>(params.get_u32("fault_ppm")) * 1e-6;
  cfg.service.faults.add({.kind = fault::FaultKind::kBusError, .prob = p});
  hang_worker0(cfg);

  const std::string stem = artifact_stem(ctx);
  arm_observability(cfg, stem);
  if (!stem.empty()) cfg.obs.slo_report_path = stem + ".slo.json";

  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  add_fleet_metrics(rep, result);

  result.add_metric("flight_triggers", rep.flight_triggers);
  result.add_metric("flight_dumps", static_cast<u64>(rep.flight_dumps.size()));
  for (const obs::SloClassReport& cls : rep.slo.classes) {
    result.add_metric("slo_" + cls.name + "_availability",
                      cls.availability());
    result.add_metric("slo_" + cls.name + "_alerts", cls.alerts);
    result.add_metric("slo_" + cls.name + "_worst_burn", cls.worst_burn);
    result.add_metric("slo_" + cls.name + "_met", static_cast<u64>(cls.met()));
  }

  // Every shard carries the hung RAC, so every shard must have tripped
  // its flight recorder on the watchdog/quarantine path.
  if (rep.flight_triggers != rep.shards) {
    result.fail("expected every shard to trip its flight recorder, got " +
                std::to_string(rep.flight_triggers) + "/" +
                std::to_string(rep.shards));
  }
  if (rep.slo.shards != rep.shards) {
    result.fail("SLO report folded " + std::to_string(rep.slo.shards) +
                " monitors, expected " + std::to_string(rep.shards));
  }
  u64 slo_jobs = 0;
  for (const obs::SloClassReport& cls : rep.slo.classes) slo_jobs += cls.jobs;
  if (slo_jobs != rep.total_completed + rep.total_failed) {
    result.fail("SLO job accounting (" + std::to_string(slo_jobs) +
                ") != completed + failed (" +
                std::to_string(rep.total_completed + rep.total_failed) + ")");
  }
}

void run_passivity(const exp::ParamMap&, const exp::RunContext& ctx,
                   exp::Result& result) {
  constexpr u32 kShards = 16;
  fleet::FleetConfig cfg = fleet_base(ctx, kShards);
  cfg.warmup.jobs = 160;
  hang_worker0(cfg);
  // The armed-vs-unarmed comparison below IS the passivity proof;
  // run_fleet's own redo pass would only repeat it. The exact histogram
  // rides in both runs: identical samples is one more identity check,
  // and the sketch-vs-exact bound needs it.
  cfg.verify_reproducible = false;
  cfg.obs.keep_exact_histogram = true;

  const double t0 = thread_cpu_seconds();
  const fleet::FleetReport bare = fleet::run_fleet(cfg);
  const double t1 = thread_cpu_seconds();
  const std::string stem = artifact_stem(ctx);
  arm_observability(cfg, stem);
  cfg.obs.profile.period = 8;  // dense enough to prove gating matters
  const fleet::FleetReport armed = fleet::run_fleet(cfg);
  const double t2 = thread_cpu_seconds();

  add_fleet_metrics(armed, result);
  result.add_metric("flight_triggers", armed.flight_triggers);
  for (u32 i = 0; i < kShards; ++i) {
    const fleet::ShardResult& b = bare.shard_results[i];
    const fleet::ShardResult& a = armed.shard_results[i];
    if (b.digest != a.digest || b.report.start != a.report.start ||
        b.report.end != a.report.end ||
        b.report.completed != a.report.completed ||
        b.report.rejected != a.report.rejected ||
        b.report.failed != a.report.failed) {
      result.fail("shard " + std::to_string(i) +
                  " diverged under arming: digest " +
                  std::to_string(b.digest) + "/" + std::to_string(a.digest) +
                  ", end " + std::to_string(b.report.end) + "/" +
                  std::to_string(a.report.end) + ", completed " +
                  std::to_string(b.report.completed) + "/" +
                  std::to_string(a.report.completed));
    }
  }
  if (!(bare.e2e_sketch == armed.e2e_sketch)) {
    result.fail("merged sketches diverged under arming");
  }
  if (bare.exact_e2e.samples() != armed.exact_e2e.samples()) {
    result.fail("exact latency streams diverged under arming");
  }
  if (bare.peak_retained_samples != 0) {
    result.fail("unarmed fleet retained raw latency samples");
  }
  if (armed.flight_triggers != kShards ||
      (!stem.empty() && armed.flight_dumps.size() != kShards)) {
    result.fail("expected " + std::to_string(kShards) +
                " flight triggers, got " +
                std::to_string(armed.flight_triggers) + " (" +
                std::to_string(armed.flight_dumps.size()) + " dumps)");
  }
  // The DDSketch guarantee: |sketch - exact| <= alpha * exact, plus one
  // cycle of integer-rounding slack.
  const double alpha = armed.e2e_sketch.relative_error();
  for (const double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    const auto sketch = static_cast<double>(armed.e2e_sketch.percentile(pct));
    const auto exact = static_cast<double>(armed.exact_e2e.percentile(pct));
    if (std::abs(sketch - exact) > alpha * exact + 1.0) {
      char why[96];
      std::snprintf(why, sizeof why,
                    "p%g sketch %.0f vs exact %.0f outside the alpha=%g bound",
                    pct, sketch, exact, alpha);
      result.fail(why);
    }
  }
  check_host_budget(t1 - t0, t2 - t1, 1.5, result);
}

}  // namespace

void register_fleet_warmboot(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "fleet_warmboot",
      .experiment = "FLEET",
      .title = "warm-boot >= 8 shards from one snapshot, serve round-robin",
      .grid = {{.name = "shards", .values = {8, 16}}},
      .deterministic = false,  // cold_boot_ms / fork_ms read the host clock
      .default_seed = 0xF1EE'7000ull,
      .run = run_warmboot,
  });
  r.add(exp::ScenarioSpec{
      .name = "fleet_slo",
      .experiment = "FLEET",
      .title = "fault-armed fleet under full observability: SLO burn-rate "
               "alerts + flight-recorder dumps",
      .grid = {{.name = "shards", .values = {8}},
               {.name = "fault_ppm", .values = {100}}},
      .deterministic = false,  // host wall-time metrics, as above
      .default_seed = 0xF1EE'5107ull,
      .run = run_slo,
  });
  r.add(exp::ScenarioSpec{
      .name = "fleet_passivity",
      .experiment = "guard",
      .title = "16 fault-armed shards unarmed vs fully armed: bit-identical, "
               "sketch within alpha, <= 1.5x host CPU",
      .deterministic = false,  // host CPU-time metrics
      .default_seed = 0xF1EE'0B55ull,
      .run = run_passivity,
  });
}

}  // namespace ouessant::scenarios
