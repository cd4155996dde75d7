// DPRF (reconfigurable slot farm) — src/dpr + the svc SlotManager under
// shifting demand (docs/reconfiguration.md, DESIGN.md §14).
//
// Three scenarios, each on a fresh SoC per grid point:
//   dpr_adapt  two slots, three candidate kernels {IDCT, DFT, FIR} —
//              more kinds than fabric. Demand shifts mid-run onto FIR,
//              which the static residency never loaded: static refuses
//              those jobs at the door, the schedulers swap a slot over.
//              Availability under the shifted mix is the headline.
//   dpr_slots  1/2/4 slots under a uniform four-kind mix with the
//              hysteresis scheduler: how much farm does a mixed workload
//              need, and how swap traffic falls as slots stop contending.
//   dpr_icap   the configuration-port ablation: the same oscillating
//              workload with the bitstream path either bus-mastered
//              (shared, contends with job DMA) or free (seed-style
//              countdown), crossed with the staging cache on/off. The
//              shared-vs-free makespan gap IS the cost of honest
//              reconfiguration timing; cache hits claw some of it back.
//
// Every point closes with the extended ledger proof — the ICAP track
// included — so reconfiguration cycles are attributed, not assumed.
#include "scenarios.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/collect.hpp"
#include "obs/tracer.hpp"
#include "svc/service.hpp"

namespace ouessant::scenarios {
namespace {

/// Run @p service over @p schedule with the standard trace wiring, then
/// flatten the report + farm counters and prove the extended ledger.
void farm_point(svc::OffloadService& service, std::vector<svc::Job> schedule,
                const exp::RunContext& ctx, exp::Result& result) {
  std::unique_ptr<sim::VcdTrace> trace;
  if (!ctx.trace_path.empty()) {
    trace = std::make_unique<sim::VcdTrace>(service.soc().kernel(),
                                            ctx.trace_path, "dprf");
    service.attach_trace(*trace);
  }
  std::unique_ptr<obs::EventTracer> tracer;
  if (!ctx.trace_events_path.empty()) {
    tracer = std::make_unique<obs::EventTracer>(service.soc().kernel());
    service.attach_tracer(*tracer);
  }
  const svc::ServiceReport rep = service.run_schedule(std::move(schedule));
  rep.add_to(result);
  obs::validate_soc_ledger(service.soc(), *service.icap());
  if (tracer != nullptr) {
    tracer->write_json(ctx.trace_events_path);
    result.add_metric("trace_events", static_cast<u64>(tracer->event_count()));
  }
  const bus::MasterStats& icap = service.icap()->master_stats();
  result.add_metric("icap_wait_cycles", icap.wait_cycles + icap.stall_cycles);
  if (rep.completed + rep.rejected != rep.jobs) {
    result.fail("farm lost jobs: completed " + std::to_string(rep.completed) +
                " + rejected " + std::to_string(rep.rejected) +
                " != " + std::to_string(rep.jobs));
  }
  if (rep.swaps_started != rep.swaps_completed) {
    result.fail("swap left in flight past finish()");
  }
}

/// dpr_adapt: two slots of fabric, three candidate kernels — more kinds
/// than area, the paper's case for partial reconfiguration. Phase 1 is a
/// balanced IDCT/DFT mix the initial residency {IDCT, DFT} serves
/// perfectly; phase 2 shifts half the demand onto FIR, a kernel the
/// static farm never loaded. Static refuses every FIR job at the door
/// (fixed-function ENOSYS — the honest baseline, not a crash); the
/// schedulers buy FIR a slot with one bitstream swap and keep the
/// leftover DFT trickle alive with occasional rescue rotations.
void run_adapt(const exp::ParamMap& params, const exp::RunContext& ctx,
               exp::Result& result) {
  constexpr u32 kPhase1Jobs = 200;
  constexpr u32 kPhase2Jobs = 800;
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  cfg.queue_depth = 128;
  cfg.slots.count = 2;
  cfg.slots.candidates = {svc::JobKind::kIdct, svc::JobKind::kDft,
                          svc::JobKind::kFir};
  cfg.slots.initial = {svc::JobKind::kIdct, svc::JobKind::kDft};
  cfg.slots.policy = svc::policy_from_name(params.get_str("policy"));
  cfg.slots.min_residency = 20'000;
  cfg.slots.switch_margin = 3.0;
  // The farm keeps its working set of partial bitstreams staged: swaps
  // after the first per image stream from the cache instead of re-walking
  // SRAM over the contended bus (the dpr_icap scenario ablates this).
  cfg.slots.cache_bytes = 256 * 1024;
  cfg.slots.icap_burst_words = 256;

  const double gap = 380.0;
  const std::vector<svc::WorkloadPhase> phases = {
      {.jobs = kPhase1Jobs,
       .mean_gap = gap,
       .mix = {{svc::JobKind::kIdct, 5.0}, {svc::JobKind::kDft, 5.0}}},
      {.jobs = kPhase2Jobs,
       .mean_gap = gap,
       .mix = {{svc::JobKind::kIdct, 4.0},
               {svc::JobKind::kFir, 5.0},
               {svc::JobKind::kDft, 1.0}}},
  };
  svc::OffloadService service(std::move(cfg));

  // Per-phase latency through the completion observer: job ids are
  // sequential across phases, so the id alone names the phase.
  svc::LatencyStats phase_e2e[2];
  u64 phase_done[2] = {0, 0};
  service.set_job_observer([&](const svc::Job& job) {
    const int ph = job.id < kPhase1Jobs ? 0 : 1;
    phase_e2e[ph].add(job.end_to_end());
    ++phase_done[ph];
  });
  farm_point(service, svc::phased_arrivals(phases, ctx.seed, /*start=*/64),
             ctx, result);
  for (int ph = 0; ph < 2; ++ph) {
    const std::string p = "phase" + std::to_string(ph + 1);
    result.add_metric(p + "_completed", phase_done[ph]);
    result.add_metric(p + "_availability",
                      static_cast<double>(phase_done[ph]) /
                          (ph == 0 ? kPhase1Jobs : kPhase2Jobs));
    result.add_metric(p + "_e2e_p99", phase_e2e[ph].percentile(99.0));
  }
}

/// dpr_slots: a uniform four-kind mix over 1/2/4 hysteresis slots.
/// Every kind must eventually be served no matter how few slots exist —
/// the scheduler's liveness, not just its throughput, is on the line.
void run_slots(const exp::ParamMap& params, const exp::RunContext& ctx,
               exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  cfg.queue_depth = 256;
  cfg.slots.count = params.get_u32("slots");
  cfg.slots.policy = svc::SwapPolicy::kHysteresis;

  const std::vector<svc::WorkloadPhase> phases = {
      {.jobs = 96,
       .mean_gap = 600.0,
       .mix = {{svc::JobKind::kIdct, 1.0},
               {svc::JobKind::kDft, 1.0},
               {svc::JobKind::kFir, 1.0},
               {svc::JobKind::kJpegBlock, 1.0}}},
  };
  svc::OffloadService service(std::move(cfg));
  farm_point(service, svc::phased_arrivals(phases, ctx.seed, /*start=*/64),
             ctx, result);
  if (result.metrics.get_int("completed") != 96) {
    result.fail("a job kind starved under the swap scheduler");
  }
}

/// dpr_icap: four oscillating 60-job phases force repeated re-loads of
/// the same per-slot images. Axes: bitstream path (shared bus master vs
/// seed-style free countdown) x staging cache (off / big enough for the
/// whole image set).
void run_icap(const exp::ParamMap& params, const exp::RunContext& ctx,
              exp::Result& result) {
  svc::ServiceConfig cfg;
  cfg.ocps.clear();
  cfg.queue_depth = 256;
  cfg.slots.count = 2;
  cfg.slots.candidates = {svc::JobKind::kIdct, svc::JobKind::kDft};
  cfg.slots.initial = {svc::JobKind::kIdct, svc::JobKind::kDft};
  cfg.slots.policy = svc::SwapPolicy::kGreedyQueueDepth;
  cfg.slots.shared_icap = params.get_str("icap") == "shared";
  cfg.slots.cache_bytes = params.get_u32("cache_kb") * 1024;

  std::vector<svc::WorkloadPhase> phases;
  for (int ph = 0; ph < 4; ++ph) {
    const double hot = (ph % 2 == 0) ? 9.0 : 1.0;
    phases.push_back({.jobs = 60,
                      .mean_gap = 260.0,
                      .mix = {{svc::JobKind::kIdct, hot},
                              {svc::JobKind::kDft, 10.0 - hot}}});
  }
  svc::OffloadService service(std::move(cfg));
  farm_point(service, svc::phased_arrivals(phases, ctx.seed, /*start=*/64),
             ctx, result);
}

}  // namespace

void register_dpr_farm(exp::Registry& r) {
  r.add(exp::ScenarioSpec{
      .name = "dpr_adapt",
      .experiment = "DPRF",
      .title = "2 slots, 3 kernels: demand shifts onto an unprovisioned "
               "kind, by policy",
      .grid = {{.name = "policy", .values = {"static", "greedy",
                                             "hysteresis"}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_adapt,
  });
  r.add(exp::ScenarioSpec{
      .name = "dpr_slots",
      .experiment = "DPRF",
      .title = "uniform 4-kind mix over 1/2/4 hysteresis slots",
      .grid = {{.name = "slots", .values = {1, 2, 4}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_slots,
  });
  r.add(exp::ScenarioSpec{
      .name = "dpr_icap",
      .experiment = "DPRF",
      .title = "bitstream path ablation: shared bus master vs free port, "
               "staging cache on/off",
      .grid = {{.name = "icap", .values = {"shared", "free"}},
               {.name = "cache_kb", .values = {0, 256}}},
      .default_seed = svc::kDefaultServiceSeed,
      .run = run_icap,
  });
}

}  // namespace ouessant::scenarios
