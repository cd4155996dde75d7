// SVC under injected faults — the src/fault/ robustness story end to end.
//
// Three scenarios arm the fault injector against the offload service and
// measure what the recovery machinery (retry + backoff + watchdog +
// quarantine, docs/robustness.md) salvages:
//   serve_faulty_rate  bus ERROR beats and output-FIFO corruption at a
//                      swept rate (ppm per opportunity): availability and
//                      e2e_p99 versus fault rate, every completed payload
//                      still verified against the software reference.
//   serve_faulty_hang  worker 0's RAC swallows every end_op: the watchdog
//                      times the hangs out, two strikes quarantine the
//                      worker, and the whole load drains through worker 1
//                      (graceful degradation, zero failed jobs).
//   serve_faulty_irq   completion IRQ edges suppressed with p=0.3: the
//                      watchdog poll rescues the lost doorbells
//                      (irq_recoveries) and nothing fails or retries.
//
// All three are seeded scenarios; the RunContext's --faults
// override replaces the built-in plan, so any site/rate mix can be
// explored from the command line without recompiling. Fixed seed + fixed
// plan ⇒ bit-identical reports (the --compare-jobs identity check covers
// this family like any other).
#include "scenarios.hpp"

#include <string>
#include <utility>

#include "fault/plan.hpp"
#include "svc/ledger.hpp"
#include "svc/service.hpp"

namespace ouessant::scenarios {
namespace {

/// Watchdog deadline: comfortably above any legitimate batch service
/// time (hundreds of cycles for the kinds used here) and small enough
/// that a hang-heavy run stays well inside the scenario timeout.
constexpr u64 kWatchdog = 16'384;

/// Run a fault-armed service point: honour the --faults override, serve
/// the workload, flatten the report (add_to emits the fault metric
/// block), prove the extended ledger (SoC tracks + per-worker tracks,
/// including quarantine time) and the job-conservation invariant.
void serve_faulty_point(svc::ServiceConfig cfg, svc::WorkloadConfig wl,
                        const exp::RunContext& ctx, exp::Result& result) {
  if (!ctx.faults.empty()) {
    cfg.faults = fault::FaultPlan::parse(ctx.faults);
  }
  svc::OffloadService service(std::move(cfg));
  wl.seed = ctx.seed;
  const svc::ServiceReport rep = service.run(wl);
  rep.add_to(result);
  (void)svc::validate_service_ledger(service);
  if (rep.completed + rep.rejected + rep.failed != rep.jobs) {
    result.fail("job conservation broken: completed " +
                std::to_string(rep.completed) + " + rejected " +
                std::to_string(rep.rejected) + " + failed " +
                std::to_string(rep.failed) + " != " +
                std::to_string(rep.jobs));
  }
}

svc::ServiceConfig two_idct_workers() {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1},
              svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 1}};
  cfg.queue_depth = 256;
  return cfg;
}

void run_rate(const exp::ParamMap& params, const exp::RunContext& ctx,
              exp::Result& result) {
  const double p = static_cast<double>(params.get_u32("fault_ppm")) * 1e-6;
  svc::ServiceConfig cfg = two_idct_workers();
  cfg.faults.add({.kind = fault::FaultKind::kBusError, .prob = p})
      .add({.kind = fault::FaultKind::kFifoCorrupt, .prob = p});
  cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                               .backoff_base = 2048,
                               .backoff_mult = 2,
                               .watchdog_cycles = kWatchdog};
  svc::WorkloadConfig wl;
  wl.jobs = 100;
  wl.mean_gap = 400.0;
  serve_faulty_point(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_real("availability") < 0.5) {
    result.fail("availability collapsed below 0.5 despite retries");
  }
}

void run_hang(const exp::ParamMap& params, const exp::RunContext& ctx,
              exp::Result& result) {
  (void)params;
  svc::ServiceConfig cfg = two_idct_workers();
  // Worker 0's RAC never reports completion; worker 1 is untouched.
  cfg.faults.add(
      {.kind = fault::FaultKind::kRacHang, .ocp = 0, .prob = 1.0});
  cfg.retry = svc::RetryPolicy{.max_attempts = 4,
                               .backoff_base = 2048,
                               .backoff_mult = 2,
                               .quarantine_after = 2,
                               .watchdog_cycles = kWatchdog};
  svc::WorkloadConfig wl;
  wl.jobs = 80;
  wl.mean_gap = 500.0;
  serve_faulty_point(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_int("quarantined") != 1) {
    result.fail("hung worker was not quarantined");
  }
  // Two strikes sideline worker 0, so no job can burn its whole retry
  // budget there: everything must drain through worker 1.
  if (result.metrics.get_int("failed") != 0) {
    result.fail("jobs failed despite a healthy second worker");
  }
}

void run_irq(const exp::ParamMap& params, const exp::RunContext& ctx,
             exp::Result& result) {
  (void)params;
  svc::ServiceConfig cfg = two_idct_workers();
  cfg.faults.add({.kind = fault::FaultKind::kIrqDrop, .prob = 0.3});
  cfg.retry = svc::RetryPolicy{.max_attempts = 2,
                               .backoff_base = 2048,
                               .watchdog_cycles = kWatchdog};
  svc::WorkloadConfig wl;
  wl.jobs = 60;
  wl.mean_gap = 600.0;
  serve_faulty_point(std::move(cfg), wl, ctx, result);
  if (result.metrics.get_int("irq_recoveries") == 0) {
    result.fail("no watchdog IRQ recoveries at p=0.3");
  }
  // A dropped doorbell delays the ack but corrupts nothing.
  if (result.metrics.get_int("failed") != 0 ||
      result.metrics.get_int("completed") != 60) {
    result.fail("suppressed IRQs cost completions");
  }
}

}  // namespace

void register_serve_faulty(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "serve_faulty_rate",
      .experiment = "FAULT",
      .title = "availability and p99 vs bus/FIFO fault rate (ppm)",
      .grid = {{.name = "fault_ppm", .values = {100, 500, 2000}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_rate,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_faulty_hang",
      .experiment = "FAULT",
      .title = "hung RAC quarantined, load drains via the healthy worker",
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_hang,
  });
  r.add(exp::ScenarioSpec{
      .name = "serve_faulty_irq",
      .experiment = "FAULT",
      .title = "suppressed completion IRQs rescued by the watchdog poll",
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_irq,
  });
}

}  // namespace ouessant::scenarios
