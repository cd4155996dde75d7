// SVC (offload service layer) — the src/svc/ scheduler under load.
//
// Five scenarios exercise the service end to end, each on a fresh SoC
// per grid point (the sweep's isolation rule):
//   serve_single_ocp  one IDCT worker under rising open-loop load: the
//                     classic queueing curve (wait_p95 grows as the gap
//                     between arrivals approaches the service time).
//   serve_multi_ocp   same offered load fanned over 1/2/4 IDCT workers:
//                     throughput should scale with worker count until
//                     the shared AHB saturates (bus_util_pct tells).
//   serve_batching    closed-loop population over one worker with the
//                     coalescing factor K swept: per-job end-to-end
//                     latency drops as launch/ack overhead amortizes.
//   serve_overload    a bounded queue offered ~5x its drain rate: the
//                     service must reject (counted) rather than livelock.
//   serve_mixed       all four job kinds, one worker each, with a
//                     high-priority share — the MPSoC service picture.
//
// All five are seeded scenarios: the RunContext seed drives
// every random decision, so identical seeds give bit-identical
// histograms, and --trace writes queue-depth / per-OCP-busy VCDs.
//
// trace_passivity is the tracing guard: a three-kind workload served
// twice at one seed, bare and with the EventTracer through every layer
// plus the MetricsSampler. Clock, Stats (obs::invariant_stats) and the
// per-job e2e samples must be bit-identical, the traced run's ledger
// must close, and tracing may cost at most 2x the bare run's thread CPU
// time plus 0.25 s. Under --trace-events the traced run's trace and
// metrics files are kept for ouessant_trace.
//
// svc_soak is the service soak guard: four shards, each a 4-OCP stack
// serving 2,500 closed-loop jobs from 16 clients at seed + shard. On the
// TSan sweep's worker threads any mutable state shared between
// "isolated" services shows up as a race; in every build a shard that
// loses or rejects a job fails.
#include "scenarios.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "obs/collect.hpp"
#include "obs/gauges.hpp"
#include "obs/tracer.hpp"
#include "svc/ledger.hpp"
#include "svc/service.hpp"

namespace ouessant::scenarios {
namespace {

/// Serve one point of this family on a fresh service, then append the
/// shared AHB's utilization over the run.
void serve(svc::ServiceConfig cfg, const svc::WorkloadConfig& wl,
           const exp::RunContext& ctx, exp::Result& result) {
  svc::OffloadService service(std::move(cfg));
  (void)serve_point(service, wl, ctx, result);
  const Cycle now = service.soc().kernel().now();
  result.add_metric(
      "bus_util_pct",
      now > 0 ? 100.0 * static_cast<double>(service.soc().bus().busy_cycles()) /
                    static_cast<double>(now)
              : 0.0);
}

void run_single(const exp::ParamMap& params, const exp::RunContext& ctx,
                exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1}};
  cfg.queue_depth = 256;
  svc::WorkloadConfig wl;
  wl.jobs = 120;
  wl.mean_gap = params.get_real("mean_gap");
  serve(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_int("rejected") != 0) {
    result.fail("unexpected rejection below saturation");
  }
}

void run_multi(const exp::ParamMap& params, const exp::RunContext& ctx,
               exp::Result& result) {
  const u32 n = params.get_u32("ocps");
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  for (u32 i = 0; i < n; ++i) {
    cfg.ocps.push_back(
        svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1});
  }
  cfg.queue_depth = 256;
  svc::WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 40.0;  // offered well above one worker's drain rate
  serve(std::move(cfg), wl, ctx, result);
}

void run_batching(const exp::ParamMap& params, const exp::RunContext& ctx,
                  exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct,
                           .max_batch = params.get_u32("batch")}};
  cfg.queue_depth = 64;
  svc::WorkloadConfig wl;
  wl.mode = svc::LoadMode::kClosedLoop;
  wl.jobs = 192;
  wl.clients = 32;
  serve(std::move(cfg), wl, ctx, result);
}

void run_overload(const exp::ParamMap& params, const exp::RunContext& ctx,
                  exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1}};
  cfg.queue_depth = params.get_u32("depth");
  svc::WorkloadConfig wl;
  wl.jobs = 200;
  wl.mean_gap = 60.0;  // ~5x the single worker's drain rate
  serve(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_int("rejected") == 0) {
    result.fail("overload produced no rejections (queue unbounded?)");
  }
}

void run_mixed(const exp::ParamMap& params, const exp::RunContext& ctx,
               exp::Result& result) {
  (void)params;
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kJpegBlock, .max_batch = 2}};
  cfg.queue_depth = 128;
  svc::WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 150.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir,
              svc::JobKind::kJpegBlock};
  wl.high_fraction = 0.25;
  serve(std::move(cfg), wl, ctx, result);
}

void run_soak(const exp::ParamMap& params, const exp::RunContext& ctx,
              exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 4},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kJpegBlock, .max_batch = 2}};
  cfg.queue_depth = 128;
  svc::OffloadService service(std::move(cfg));
  svc::WorkloadConfig wl;
  wl.mode = svc::LoadMode::kClosedLoop;
  wl.jobs = 2500;
  wl.clients = 16;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir,
              svc::JobKind::kJpegBlock};
  wl.high_fraction = 0.25;
  exp::RunContext shard = ctx;
  shard.seed += params.get_u32("shard");
  const svc::ServiceReport rep = serve_point(service, wl, shard, result);
  if (rep.completed != rep.jobs || rep.rejected != 0) {
    result.fail("lost work: completed " + std::to_string(rep.completed) +
                ", rejected " + std::to_string(rep.rejected) + " of " +
                std::to_string(rep.jobs));
  }
}

/// One trace_passivity side: what must match, and what it cost.
struct PassivityRun {
  Cycle cycles = 0;
  std::map<std::string, u64> stats;
  std::vector<u64> e2e;
  u64 completed = 0;
  std::size_t trace_events = 0;
  double cpu_s = 0.0;
};

PassivityRun serve_three_kinds(bool traced, const exp::RunContext& ctx) {
  const double t0 = thread_cpu_seconds();
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.queue_depth = 128;
  svc::WorkloadConfig wl;
  wl.jobs = 120;
  wl.mean_gap = 200.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir};
  wl.high_fraction = 0.25;
  wl.seed = ctx.seed;
  svc::OffloadService service(std::move(cfg));
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::MetricsSampler> metrics;
  if (traced) {
    tracer = std::make_unique<obs::EventTracer>(service.soc().kernel());
    service.attach_tracer(*tracer);
    metrics = std::make_unique<obs::MetricsSampler>(
        service.soc().kernel(), kMetricsPeriod, service.gauges());
  }
  const svc::ServiceReport rep = service.run(wl);
  const sim::Kernel& kernel = service.soc().kernel();
  PassivityRun run{.cycles = kernel.now(),
                   .stats = obs::invariant_stats(kernel.stats()),
                   .e2e = rep.e2e.samples(),
                   .completed = rep.completed};
  if (traced) {
    (void)svc::validate_service_ledger(service);
    run.trace_events = tracer->event_count();
  }
  run.cpu_s = thread_cpu_seconds() - t0;
  if (traced && !ctx.trace_events_path.empty()) {
    tracer->write_json(ctx.trace_events_path);
    metrics->write_json(ctx.trace_events_path + ".metrics.json");
  }
  return run;
}

void run_trace_passivity(const exp::ParamMap&, const exp::RunContext& ctx,
                         exp::Result& result) {
  const PassivityRun bare = serve_three_kinds(false, ctx);
  const PassivityRun traced = serve_three_kinds(true, ctx);
  result.add_metric("completed", traced.completed);
  result.add_metric("cycles", traced.cycles);
  result.add_metric("trace_events", static_cast<u64>(traced.trace_events));
  if (bare.cycles != traced.cycles) {
    result.fail("sim clock diverged: untraced " + std::to_string(bare.cycles) +
                ", traced " + std::to_string(traced.cycles));
  }
  if (bare.stats != traced.stats) {
    const auto [b, t] = std::mismatch(bare.stats.begin(), bare.stats.end(),
                                      traced.stats.begin(), traced.stats.end());
    const std::string& key = b != bare.stats.end() ? b->first : t->first;
    const auto count = [&key](const std::map<std::string, u64>& m) {
      const auto it = m.find(key);
      return std::to_string(it == m.end() ? 0 : it->second);
    };
    result.fail("Stats::all() diverged at " + key + ": untraced " +
                count(bare.stats) + ", traced " + count(traced.stats));
  }
  if (bare.e2e != traced.e2e) {
    result.fail("per-job e2e samples diverged (" +
                std::to_string(bare.e2e.size()) + " vs " +
                std::to_string(traced.e2e.size()) + " samples)");
  }
  check_host_budget(bare.cpu_s, traced.cpu_s, 2.0, result);
}

}  // namespace

void register_serve(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "serve_single_ocp",
      .experiment = "SVC",
      .title = "one IDCT worker under rising open-loop load",
      .grid = {{.name = "mean_gap", .values = {1200.0, 600.0, 400.0}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_single,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_multi_ocp",
      .experiment = "SVC",
      .title = "fixed offered load over 1/2/4 IDCT workers on one AHB",
      .grid = {{.name = "ocps", .values = {1, 2, 4}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_multi,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_batching",
      .experiment = "SVC",
      .title = "closed-loop population, batch factor K swept",
      .grid = {{.name = "batch", .values = {1, 2, 4, 8, 16}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_batching,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_overload",
      .experiment = "SVC",
      .title = "bounded queue offered ~5x its drain rate: reject, not hang",
      .grid = {{.name = "depth", .values = {16, 64}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_overload,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_mixed",
      .experiment = "SVC",
      .title = "all four job kinds, one worker each, 25% high priority",
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_mixed,
  });
  r.add(exp::ScenarioSpec{
      .name = "trace_passivity",
      .experiment = "guard",
      .title = "three job kinds untraced vs fully traced: bit-identical, "
               "<= 2x host CPU",
      .deterministic = false,  // host CPU-time metrics
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_trace_passivity,
  });
  r.add(exp::ScenarioSpec{
      .name = "svc_soak",
      .experiment = "guard",
      .title = "4-OCP service shards, 2,500 closed-loop jobs each: no job "
               "lost or rejected",
      .grid = {{.name = "shard", .values = {0, 1, 2, 3}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_soak,
  });
}

}  // namespace ouessant::scenarios
