// Observability layer (src/obs/): the CycleLedger attribution proof, the
// EventTracer -> trace_reader -> analysis round trip, the MetricsSampler
// registration discipline, and — the Table-I reproduction — the analytic
// transfer/compute/control decomposition of the E1 invocations. Every
// E-scenario self-validates its ledger in-run (bench_* call
// validate_soc_ledger), so the registry sweep here turns a single
// over/under-attributed cycle anywhere into a test failure.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "drv/session.hpp"
#include "exp/sweep.hpp"
#include "obs/analysis.hpp"
#include "obs/collect.hpp"
#include "obs/ledger.hpp"
#include "obs/sampler.hpp"
#include "obs/slo.hpp"
#include "obs/trace_reader.hpp"
#include "obs/tracer.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/dft.hpp"
#include "rac/idct.hpp"
#include "scenarios.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace ouessant {
namespace {

// ---------------------------------------------------------------------
// CycleLedger.

TEST(Ledger, CreditsCloseAndValidate) {
  obs::CycleLedger ledger;
  const auto a = ledger.add_track("a");
  const auto b = ledger.add_track("b");
  ledger.credit(a, obs::Category::kTransfer, 30);
  ledger.credit(a, obs::Category::kCompute, 50);
  ledger.credit(b, obs::Category::kWait, 70);
  EXPECT_EQ(ledger.close_track(a, 100, obs::Category::kIdle), 20u);
  EXPECT_EQ(ledger.close_track(b, 100, obs::Category::kControl), 30u);
  ledger.validate(100);
  EXPECT_EQ(ledger.track_sum(a), 100u);
  EXPECT_EQ(ledger.track_sum(b), 100u);
  EXPECT_EQ(ledger.total(a, obs::Category::kIdle), 20u);
  EXPECT_EQ(ledger.total(b, obs::Category::kControl), 30u);
  EXPECT_EQ(ledger.category_sum(obs::Category::kWait), 70u);
  EXPECT_EQ(ledger.padding(a), 20u);
  EXPECT_TRUE(ledger.closed(a));
}

TEST(Ledger, OverAttributionThrows) {
  obs::CycleLedger ledger;
  const auto t = ledger.add_track("t");
  ledger.credit(t, obs::Category::kCompute, 101);
  EXPECT_THROW(ledger.close_track(t, 100, obs::Category::kIdle), SimError);
}

TEST(Ledger, DuplicateTrackNameRejected) {
  obs::CycleLedger ledger;
  (void)ledger.add_track("bus.ahb");
  EXPECT_THROW(ledger.add_track("bus.ahb"), ConfigError);
}

TEST(Ledger, CreditAfterCloseRejected) {
  obs::CycleLedger ledger;
  const auto t = ledger.add_track("t");
  ledger.close_track(t, 10, obs::Category::kIdle);
  EXPECT_THROW(ledger.credit(t, obs::Category::kIdle, 1), SimError);
}

TEST(Ledger, ValidateCatchesUnclosedAndWrongWall) {
  obs::CycleLedger ledger;
  const auto t = ledger.add_track("t");
  EXPECT_THROW(ledger.validate(10), SimError);  // never closed
  ledger.close_track(t, 10, obs::Category::kIdle);
  ledger.validate(10);
  EXPECT_THROW(ledger.validate(11), SimError);  // sums to 10, not 11
}

TEST(Ledger, RenderListsTracksAndCategories) {
  obs::CycleLedger ledger;
  const auto t = ledger.add_track("bus.ahb");
  ledger.credit(t, obs::Category::kTransfer, 75);
  ledger.close_track(t, 100, obs::Category::kIdle);
  const std::string table = ledger.render(100);
  EXPECT_NE(table.find("bus.ahb"), std::string::npos);
  EXPECT_NE(table.find("transfer"), std::string::npos);
  EXPECT_NE(table.find("75"), std::string::npos);
}

// ---------------------------------------------------------------------
// EventTracer -> trace_reader round trip.

TEST(Tracer, TrackInterningIsStable) {
  sim::Kernel k;
  obs::EventTracer t(k);
  const auto a = t.track("alpha");
  const auto b = t.track("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.track("alpha"), a);
  EXPECT_EQ(t.track_names().size(), 2u);
}

TEST(Tracer, JsonRoundTripPreservesEvents) {
  sim::Kernel k;
  obs::EventTracer t(k);
  const auto a = t.track("ctrl.demo");
  const auto b = t.track("svc.sched");
  t.complete(a, "mvtc", 5, 17,
             {obs::arg("pc", u64{3}), obs::arg("why", "roundtrip")});
  k.run(4);
  t.instant(b, "enqueue", {obs::arg("id", u64{7})});
  t.counter(b, "queue_depth", 9);
  t.flow_begin(b, "job", 42);
  t.flow_step(a, "job", 42);
  t.flow_end(a, "job", 42);

  const obs::ParsedTrace p = obs::parse_trace(t.to_json());
  EXPECT_EQ(p.track_name(a), "ctrl.demo");
  EXPECT_EQ(p.track_name(b), "svc.sched");
  ASSERT_EQ(p.events.size(), 6u);

  const obs::ParsedEvent& span = p.events[0];
  EXPECT_EQ(span.ph, 'X');
  EXPECT_EQ(span.name, "mvtc");
  EXPECT_EQ(span.ts, 5u);
  EXPECT_EQ(span.dur, 12u);
  ASSERT_TRUE(span.args.count("pc"));
  EXPECT_EQ(span.args.at("pc").u, 3u);
  ASSERT_TRUE(span.args.count("why"));
  EXPECT_EQ(span.args.at("why").s, "roundtrip");

  EXPECT_EQ(p.events[1].ph, 'i');
  EXPECT_EQ(p.events[1].ts, 4u);  // current cycle after k.run(4)
  EXPECT_EQ(p.events[2].ph, 'C');
  EXPECT_EQ(p.events[2].args.at("value").u, 9u);
  EXPECT_EQ(p.events[3].ph, 's');
  EXPECT_EQ(p.events[4].ph, 't');
  EXPECT_EQ(p.events[5].ph, 'f');
  EXPECT_EQ(p.events[5].id, 42u);
}

TEST(TraceReader, RejectsMalformedJson) {
  EXPECT_THROW(obs::parse_trace("not json"), SimError);
  EXPECT_THROW(obs::parse_trace("{\"traceEvents\": [{]}"), SimError);
  EXPECT_THROW(obs::read_trace("/nonexistent/trace.json"), SimError);
}

// The trace, SLO and metrics readers share one JSON cursor: a hostile
// number is a SimError, never a std::out_of_range / std::invalid_argument
// escaping std::sto*, and never a silently wrapped value.
TEST(ArtifactReaders, RejectHostileNumbersWithSimError) {
  const auto file = [](const std::string& body) {
    const std::string path = ::testing::TempDir() + "hostile_artifact.json";
    std::ofstream(path) << body;
    return path;
  };
  const std::string metrics = "{\"schema\": \"ouessant.metrics.v1\", ";
  EXPECT_THROW(
      obs::read_metrics(file(metrics + "\"period\": 99999999999999999999999}")),
      SimError);
  const std::string slo = "{\"schema\": \"ouessant.slo.v1\", ";
  for (const char* hostile : {"\"shards\": e}", "\"shards\": 1e999}",
                              "\"shards\": -5}", "\"target\": 1e999}",
                              "\"burn_threshold\": 1e999}"}) {
    EXPECT_THROW(obs::read_slo_report(file(slo + hostile)), SimError)
        << hostile;
  }
  EXPECT_EQ(obs::read_slo_report(file(slo + "\"shards\": 3}")).shards, 3u);
  const std::string trace = "{\"traceEvents\": [{\"ph\": \"X\", ";
  EXPECT_THROW(obs::parse_trace(trace + "\"ts\": 12345678901234567890123}]}"),
               SimError);
  EXPECT_THROW(obs::parse_trace(trace + "\"tid\": 4294967296}]}"), SimError);
  EXPECT_THROW(obs::parse_trace(trace + "\"x\": " + std::string(100, '[')),
               SimError);
  EXPECT_THROW(obs::parse_trace("{\"traceEvents\": []} trailing"), SimError);
  EXPECT_EQ(obs::parse_trace(trace + "\"ts\": 18446744073709551615}]}")
                .events.at(0)
                .ts,
            ~u64{0});
}

TEST(TraceReader, UnknownTrackGetsFallbackName) {
  obs::ParsedTrace t;
  EXPECT_EQ(t.track_name(3), "track3");
}

// ---------------------------------------------------------------------
// MetricsSampler.

TEST(Sampler, RecordsEveryPeriodCycles) {
  sim::Kernel k;
  obs::MetricsSampler m(k, 10);
  m.add_gauge("now", [&] { return k.now(); });
  m.add_stat("bus.beats");  // never interned: passive zero column
  k.run(25);
  ASSERT_EQ(m.samples().size(), 2u);
  EXPECT_EQ(m.samples()[0].cycle, 10u);
  EXPECT_EQ(m.samples()[1].cycle, 20u);
  ASSERT_EQ(m.columns().size(), 2u);
  EXPECT_EQ(m.columns()[0], "now");
  EXPECT_EQ(m.columns()[1], "bus.beats");
  EXPECT_EQ(m.samples()[0].values[0], 10u);
  EXPECT_EQ(m.samples()[0].values[1], 0u);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("ouessant.metrics.v1"), std::string::npos);
  EXPECT_NE(json.find("\"now\""), std::string::npos);
}

TEST(Sampler, RegistrationDiscipline) {
  sim::Kernel k;
  EXPECT_THROW(obs::MetricsSampler(k, 0), ConfigError);
  obs::MetricsSampler m(k, 5);
  m.add_gauge("g", [] { return u64{0}; });
  EXPECT_THROW(m.add_gauge("g", [] { return u64{0}; }), ConfigError);
  k.run(6);  // first sample taken at cycle 5
  EXPECT_THROW(m.add_gauge("late", [] { return u64{0}; }), SimError);
  EXPECT_THROW(m.add_stat("late.stat"), SimError);
}

// ---------------------------------------------------------------------
// Analysis aggregations on a synthetic trace.

TEST(Analysis, BreaksDownPhasesJobsAndPcs) {
  sim::Kernel k;
  obs::EventTracer t(k);
  const auto jobs = t.track("svc.jobs");
  const auto ctrl = t.track("ctrl.demo");
  t.complete(jobs, "idct", 100, 400,
             {obs::arg("id", u64{1}), obs::arg("wait", u64{50}),
              obs::arg("service", u64{250}), obs::arg("worker", "ocp0")});
  t.complete(jobs, "idct", 150, 600,
             {obs::arg("id", u64{2}), obs::arg("wait", u64{200}),
              obs::arg("service", u64{250}), obs::arg("worker", "ocp0")});
  t.complete(ctrl, "mvtc", 100, 140, {obs::arg("pc", u64{0})});
  t.complete(ctrl, "mvtc", 300, 350, {obs::arg("pc", u64{0})});
  t.complete(ctrl, "exec", 140, 160, {obs::arg("pc", u64{1})});

  const obs::ParsedTrace p = obs::parse_trace(t.to_json());

  const auto phases = obs::phase_breakdown(p);
  ASSERT_FALSE(phases.empty());
  // Sorted by total duration: the two idct job spans (750) lead.
  EXPECT_EQ(phases[0].name, "idct");
  EXPECT_EQ(phases[0].count, 2u);
  EXPECT_EQ(phases[0].total_dur, 750u);
  EXPECT_EQ(phases[0].max_dur, 450u);

  const auto paths = obs::job_critical_paths(p);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].id, 2u);  // worst end-to-end first
  EXPECT_EQ(paths[0].end_to_end, 450u);
  EXPECT_EQ(paths[0].wait, 200u);
  EXPECT_EQ(paths[0].worker, "ocp0");
  EXPECT_EQ(paths[1].id, 1u);

  const auto pcs = obs::hottest_pcs(p);
  ASSERT_EQ(pcs.size(), 2u);
  EXPECT_EQ(pcs[0].pc, 0u);  // mvtc at pc 0: 90 cycles over 2 hits
  EXPECT_EQ(pcs[0].count, 2u);
  EXPECT_EQ(pcs[0].total_dur, 90u);
  EXPECT_EQ(pcs[0].mnemonic, "mvtc");

  const std::string report = obs::render_report(p, 5);
  EXPECT_NE(report.find("svc.jobs"), std::string::npos);
  EXPECT_NE(report.find("mvtc"), std::string::npos);
}

// ---------------------------------------------------------------------
// Ledger exactness across the paper experiments. Every scenario calls
// obs::validate_soc_ledger() on its SoC(s) before reporting, so running
// a grid point is the attribution proof for that experiment.

class LedgerExactness : public ::testing::TestWithParam<const char*> {};

TEST_P(LedgerExactness, FirstGridPointValidates) {
  exp::Registry reg;
  scenarios::register_all_scenarios(reg);
  const exp::ScenarioSpec* spec = reg.find(GetParam());
  ASSERT_NE(spec, nullptr) << GetParam();
  const auto points = spec->points();
  ASSERT_FALSE(points.empty());
  exp::SweepJob job{.spec = spec, .params = points[0]};
  job.ctx.seed = spec->default_seed;
  const exp::Result r = exp::run_job(job);
  EXPECT_TRUE(r.ok) << r.error;
}

INSTANTIATE_TEST_SUITE_P(
    AllExperiments, LedgerExactness,
    ::testing::Values("e1_table1", "e2_resources", "e3_linux_overhead",
                      "e4_transfer", "e5_integration", "e6_isa",
                      "e6_overlap", "e7_dpr", "e8_bus", "e9_jpeg",
                      "e10_latency", "e10_overlap", "e11_l3",
                      "e12_contention", "serve_mixed"),
    [](const auto& info) { return std::string(info.param); });

// ---------------------------------------------------------------------
// Table I, analytically: the E1 invocations decomposed by the ledger.

struct InvocationLedger {
  obs::CycleLedger ledger;
  Cycle wall = 0;
  obs::CycleLedger::TrackId bus = 0;
  obs::CycleLedger::TrackId rac = 0;
};

obs::CycleLedger::TrackId find_track(const obs::CycleLedger& ledger,
                                     const std::string& prefix) {
  for (obs::CycleLedger::TrackId t = 0; t < ledger.track_count(); ++t) {
    if (ledger.track_name(t).rfind(prefix, 0) == 0) return t;
  }
  ADD_FAILURE() << "no track with prefix " << prefix;
  return 0;
}

/// One baremetal invocation of the E1 IDCT or DFT workload, returning
/// the validated ledger.
InvocationLedger run_invocation(bool dft) {
  platform::Soc soc;
  std::unique_ptr<core::Rac> rac;
  u32 words = 0;
  if (dft) {
    rac = std::make_unique<rac::DftRac>(soc.kernel(), "dft",
                                        rac::DftRacConfig{.points = 256});
    words = 512;
  } else {
    rac = std::make_unique<rac::IdctRac>(soc.kernel(), "idct");
    words = 64;
  }
  core::Ocp& ocp = soc.add_ocp(*rac);
  drv::OcpSession session(soc.cpu(), soc.sram(), ocp,
                          {.prog_base = 0x4000'0000,
                           .in_base = 0x4001'0000,
                           .out_base = 0x4002'0000,
                           .in_words = words,
                           .out_words = words});
  session.install(core::build_stream_program(
      {.in_words = words, .out_words = words, .burst = 64}));
  util::Rng rng(7);
  std::vector<u32> in(words);
  for (auto& w : in) w = util::to_word(rng.range(-1024, 1023));
  session.put_input(in);
  session.run_irq();

  InvocationLedger out;
  out.ledger = obs::validate_soc_ledger(soc);
  out.wall = soc.kernel().now();
  out.bus = find_track(out.ledger, "bus.");
  out.rac = find_track(out.ledger, "rac.");
  return out;
}

TEST(TableOne, IdctIsTransferDominated) {
  const InvocationLedger r = run_invocation(/*dft=*/false);
  // Table I row 1: the 18-cycle IDCT disappears under the 128-word
  // transfer. In ledger terms the RAC's busy window is fully hidden
  // inside the streaming window — its compute exceeds the bus's data
  // beats by at most the pipeline latency — so the invocation's cost IS
  // the transfer cost.
  const u64 transfer = r.ledger.total(r.bus, obs::Category::kTransfer);
  const u64 compute = r.ledger.total(r.rac, obs::Category::kCompute);
  EXPECT_GT(transfer, 0u);
  EXPECT_LE(compute, transfer + 2 * rac::IdctRac::kPaperLatency)
      << "transfer " << transfer << " compute " << compute;
  // The bus attribution is exact: every busy cycle performed exactly
  // one action, so closing against wall padded nothing.
  EXPECT_EQ(r.ledger.padding(r.bus), 0u);
  EXPECT_EQ(r.ledger.track_sum(r.bus), r.wall);
}

TEST(TableOne, DftIsComputeDominated) {
  const InvocationLedger r = run_invocation(/*dft=*/true);
  // Table I row 2: the 2485-cycle DFT dwarfs its 1024-word transfer.
  const u64 transfer = r.ledger.total(r.bus, obs::Category::kTransfer);
  const u64 compute = r.ledger.total(r.rac, obs::Category::kCompute);
  EXPECT_GT(compute, transfer)
      << "transfer " << transfer << " compute " << compute;
  EXPECT_GE(compute, 2485u);  // at least the datasheet latency
  EXPECT_EQ(r.ledger.padding(r.bus), 0u);
}

TEST(TableOne, EveryTrackSumsToWall) {
  const InvocationLedger r = run_invocation(/*dft=*/false);
  ASSERT_GE(r.ledger.track_count(), 4u);  // bus, cpu, ctrl, rac
  for (obs::CycleLedger::TrackId t = 0; t < r.ledger.track_count(); ++t) {
    EXPECT_EQ(r.ledger.track_sum(t), r.wall) << r.ledger.track_name(t);
  }
}

// ---------------------------------------------------------------------
// Trace <-> LatencyStats round trip: per-job spans in the trace carry
// exactly the end-to-end samples the service histogrammed.

TEST(ServeTrace, JobSpansMatchLatencyHistograms) {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 1}};
  cfg.queue_depth = 64;
  svc::OffloadService service(std::move(cfg));
  obs::EventTracer tracer(service.soc().kernel());
  service.attach_tracer(tracer);

  svc::WorkloadConfig wl;
  wl.jobs = 60;
  wl.mean_gap = 250.0;
  wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft};
  const svc::ServiceReport rep = service.run(wl);
  ASSERT_EQ(rep.completed, 60u);

  const obs::ParsedTrace p = obs::parse_trace(tracer.to_json());
  const auto paths = obs::job_critical_paths(p);
  ASSERT_EQ(paths.size(), rep.completed);

  std::vector<u64> traced_e2e;
  std::vector<u64> traced_wait;
  for (const auto& j : paths) {
    traced_e2e.push_back(j.end_to_end);
    traced_wait.push_back(j.wait);
  }
  std::vector<u64> reported_e2e = rep.e2e.samples();
  std::vector<u64> reported_wait = rep.wait.samples();
  std::sort(traced_e2e.begin(), traced_e2e.end());
  std::sort(traced_wait.begin(), traced_wait.end());
  std::sort(reported_e2e.begin(), reported_e2e.end());
  std::sort(reported_wait.begin(), reported_wait.end());
  EXPECT_EQ(traced_e2e, reported_e2e);
  EXPECT_EQ(traced_wait, reported_wait);

  // And the full stack left a provable ledger behind.
  const obs::CycleLedger ledger = obs::validate_soc_ledger(service.soc());
  EXPECT_EQ(ledger.track_count(),
            2 + 2 * service.soc().ocp_count());  // bus, cpu, ctrl+rac each
}

}  // namespace
}  // namespace ouessant
