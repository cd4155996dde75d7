#include "scenarios.hpp"

#include <ctime>
#include <memory>
#include <string>
#include <utility>

#include "obs/gauges.hpp"
#include "obs/tracer.hpp"
#include "snap/snapshot.hpp"
#include "svc/ledger.hpp"

namespace ouessant::scenarios {

void register_all_scenarios(exp::Registry& r) {
  register_e1_table1(r);
  register_e2_resources(r);
  register_e3_linux_overhead(r);
  register_e4_transfer(r);
  register_e5_integration(r);
  register_e6_isa_ext(r);
  register_e7_dpr(r);
  register_e8_bus_portability(r);
  register_e9_jpeg(r);
  register_e10_coupled(r);
  register_e11_l3_validation(r);
  register_e12_contention(r);
  register_serve(r);
  register_serve_faulty(r);
  register_fleet_warmboot(r);
  register_dpr_farm(r);
  register_chain(r);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void check_host_budget(double bare_s, double armed_s, double factor,
                       exp::Result& result) {
  constexpr double kSlackSeconds = 0.25;
  const double budget = factor * bare_s + kSlackSeconds;
  result.add_metric("bare_cpu_s", bare_s);
  result.add_metric("armed_cpu_s", armed_s);
  result.add_metric("budget_cpu_s", budget);
  if (armed_s > budget) {
    result.fail("instrumented run over its host budget: bare " +
                std::to_string(bare_s) + " s, armed " +
                std::to_string(armed_s) + " s, budget " +
                std::to_string(budget) + " s (thread CPU)");
  }
}

svc::ServiceReport serve_point(svc::OffloadService& service, ServiceLoad load,
                               const exp::RunContext& ctx,
                               exp::Result& result) {
  auto* workload = std::get_if<svc::WorkloadConfig>(&load);
  const bool warm = !ctx.restore_path.empty();
  if (warm && workload == nullptr) {
    throw ConfigError("--restore: " + result.scenario +
                      " serves a pre-built schedule, which cannot "
                      "warm-boot");
  }
  sim::Kernel& kernel = service.soc().kernel();
  std::unique_ptr<obs::VcdTrace> vcd;
  if (!ctx.trace_path.empty()) {
    vcd = std::make_unique<obs::VcdTrace>(kernel, ctx.trace_path,
                                          service.gauges(), "svc");
  }
  std::unique_ptr<obs::EventTracer> tracer;
  std::unique_ptr<obs::MetricsSampler> metrics;
  if (!ctx.trace_events_path.empty()) {
    tracer = std::make_unique<obs::EventTracer>(kernel);
    service.attach_tracer(*tracer);
    metrics = std::make_unique<obs::MetricsSampler>(kernel, kMetricsPeriod,
                                                    service.gauges());
  }
  svc::ServiceReport rep;
  if (workload != nullptr) {
    // Warm boot: resident microcode, IRQ masks and caches come from the
    // image, which must come from the same configuration (restore
    // checks the fingerprint); only this run's counters start at zero.
    if (warm) service.restore(snap::Snapshot::load_file(ctx.restore_path));
    workload->seed = ctx.seed;
    service.begin(*workload, warm);
    while (!service.step()) {
    }
    rep = service.finish();
  } else {
    rep = service.run_schedule(std::get<std::vector<svc::Job>>(std::move(load)));
  }
  if (!ctx.snapshot_path.empty()) {
    service.snapshot().save_file(ctx.snapshot_path);
  }
  rep.add_to(result);
  (void)svc::validate_service_ledger(service);
  if (tracer != nullptr) {
    tracer->write_json(ctx.trace_events_path);
    metrics->write_json(ctx.trace_events_path + ".metrics.json");
    result.add_metric("trace_events", static_cast<u64>(tracer->event_count()));
  }
  if (rep.completed + rep.rejected + rep.failed != rep.jobs) {
    result.fail("job conservation broken: completed " +
                std::to_string(rep.completed) + " + rejected " +
                std::to_string(rep.rejected) + " + failed " +
                std::to_string(rep.failed) + " != " +
                std::to_string(rep.jobs));
  }
  if (rep.swaps_started != rep.swaps_completed) {
    result.fail("swap left in flight past finish()");
  }
  return rep;
}

}  // namespace ouessant::scenarios
