// Experiment-layer tests: the scenario registry is complete (guards
// included), every scenario builds a working simulation and completes,
// the headline cycle counts match the pre-refactor bench transcripts
// (golden values), every dispatcher-driven point matches its pinned
// metric digest, the DPRF claim holds across dpr_adapt's points, and the
// parallel sweep is bit-identical to the serial one in deterministic
// order.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/sweep.hpp"
#include "scenarios.hpp"
#include "util/types.hpp"

namespace ouessant {
namespace {

const exp::Registry& registry() {
  static const exp::Registry r = [] {
    exp::Registry reg;
    scenarios::register_all_scenarios(reg);
    return reg;
  }();
  return r;
}

/// Run one scenario at one grid point (by index into points()) with
/// @p ctx, its seed set to the scenario's default.
exp::Result run_point(const std::string& name, std::size_t index = 0,
                      exp::RunContext ctx = {}) {
  const exp::ScenarioSpec* spec = registry().find(name);
  EXPECT_NE(spec, nullptr) << name;
  const auto points = spec->points();
  EXPECT_LT(index, points.size()) << name;
  exp::SweepJob job;
  job.spec = spec;
  job.params = points[index];
  ctx.seed = spec->default_seed;
  job.ctx = std::move(ctx);
  return exp::run_job(job);
}

/// A spec with only a name and a run function; defaults elsewhere.
exp::ScenarioSpec named_spec(std::string name,
                             decltype(exp::ScenarioSpec::run) run) {
  exp::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.run = std::move(run);
  return spec;
}

/// Sweep options that set only the worker count.
exp::SweepOptions on_workers(int jobs) {
  exp::SweepOptions options;
  options.jobs = jobs;
  return options;
}

i64 metric(const exp::Result& r, const std::string& name) {
  EXPECT_TRUE(r.metrics.has(name))
      << r.scenario << " missing metric " << name;
  return r.metrics.at(name).as_int();
}

// ---------------------------------------------------------------------
// Registry shape.

TEST(Registry, ContainsEveryExperiment) {
  std::set<std::string> experiments;
  for (const auto& spec : registry().scenarios()) {
    experiments.insert(spec.experiment);
  }
  for (const char* e : {"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8",
                        "E9", "E10", "E11", "E12", "guard"}) {
    EXPECT_TRUE(experiments.count(e)) << "no scenario registered for " << e;
  }
  // The passivity guards are scenarios: deleting one fails here instead
  // of quietly dropping the guard from every sweep.
  for (const char* guard : {"trace_passivity", "fleet_passivity"}) {
    const exp::ScenarioSpec* spec = registry().find(guard);
    ASSERT_NE(spec, nullptr) << "guard scenario " << guard << " missing";
    EXPECT_EQ(spec->experiment, "guard");
  }
}

TEST(Registry, RejectsDuplicatesAndMissingRun) {
  exp::Registry r;
  const auto noop = [](const exp::ParamMap&, const exp::RunContext&,
                       exp::Result&) {};
  r.add(named_spec("a", noop));
  EXPECT_THROW(r.add(named_spec("a", noop)), ConfigError);
  EXPECT_THROW(r.add(named_spec("b", {})), ConfigError);
}

TEST(Registry, GridExpansionLastAxisFastest) {
  const exp::ScenarioSpec* spec = registry().find("e6_isa");
  ASSERT_NE(spec, nullptr);
  const auto points = spec->points();
  ASSERT_EQ(points.size(), 12u);
  // words=128 stays fixed while burst and isa cycle through first.
  EXPECT_EQ(points[0].str(), "words=128 burst=16 isa=v1");
  EXPECT_EQ(points[1].str(), "words=128 burst=16 isa=v2");
  EXPECT_EQ(points[2].str(), "words=128 burst=64 isa=v1");
  EXPECT_EQ(points[4].str(), "words=512 burst=16 isa=v1");
}

TEST(Registry, SkipPredicateDropsDegeneratePoints) {
  const exp::ScenarioSpec* spec = registry().find("e4_transfer");
  ASSERT_NE(spec, nullptr);
  // The skip predicate only fires when a v2 loop would degenerate to a
  // single iteration (512/burst <= 1); no current grid value triggers
  // it, so the full 9x2 grid survives — the predicate guards future
  // burst values.
  EXPECT_EQ(spec->point_count(), 18u);
  exp::ScenarioSpec clipped = *spec;
  clipped.grid[0].values = {512};
  EXPECT_EQ(clipped.point_count(), 1u);  // v2@512 skipped, v1 kept
}

// ---------------------------------------------------------------------
// Golden cycle counts: the registry runs must reproduce the
// pre-refactor bench binaries bit for bit (values captured from the
// seed transcripts).

TEST(Golden, E1Table1) {
  const auto idct = run_point("e1_table1", 0);
  EXPECT_TRUE(idct.ok) << idct.error;
  EXPECT_EQ(metric(idct, "lat"), 18);
  EXPECT_EQ(metric(idct, "hw"), 2994);
  EXPECT_EQ(metric(idct, "sw"), 4812);
  const auto dft = run_point("e1_table1", 1);
  EXPECT_EQ(metric(dft, "lat"), 2485);
  EXPECT_EQ(metric(dft, "hw"), 6299);
  EXPECT_EQ(metric(dft, "sw"), 659468);
}

TEST(Golden, E3LinuxOverhead) {
  const auto r = run_point("e3_linux_overhead");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "bm_poll"), 3645);
  EXPECT_EQ(metric(r, "bm_irq"), 3601);
  EXPECT_EQ(metric(r, "lx_mmap"), 6299);
  EXPECT_EQ(metric(r, "lx_copy"), 14491);
  EXPECT_EQ(metric(r, "linux_overhead"), 2698);
  EXPECT_EQ(metric(r, "copy_extra"), 8192);
}

TEST(Golden, E4TransferDma64) {
  // burst=64 v1 is the paper's configuration: ~1.5 cycles/word.
  const auto points = registry().find("e4_transfer")->points();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].str() == "burst=64 isa=v1") {
      const auto r = run_point("e4_transfer", i);
      EXPECT_TRUE(r.ok) << r.error;
      EXPECT_EQ(metric(r, "prog_size"), 18);
      EXPECT_EQ(metric(r, "cycles"), 1632);
      return;
    }
  }
  FAIL() << "burst=64 isa=v1 point missing";
}

TEST(Golden, E5IntegrationStyles) {
  const auto r = run_point("e5_integration", 3);  // words=128
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "pio"), 1688);
  EXPECT_EQ(metric(r, "dma"), 696);
  EXPECT_EQ(metric(r, "ocp"), 562);
}

TEST(Golden, E6IsaAndOverlap) {
  const auto v1 = run_point("e6_isa", 4);  // words=512 burst=16 isa=v1
  EXPECT_EQ(v1.params.str(), "words=512 burst=16 isa=v1");
  EXPECT_EQ(metric(v1, "prog_size"), 66);
  EXPECT_EQ(metric(v1, "instrs_run"), 66);
  EXPECT_EQ(metric(v1, "cycles"), 2380);
  const auto v2 = run_point("e6_isa", 5);  // words=512 burst=16 isa=v2
  EXPECT_EQ(metric(v2, "prog_size"), 6);
  EXPECT_EQ(metric(v2, "instrs_run"), 130);
  EXPECT_EQ(metric(v2, "cycles"), 2636);
  EXPECT_EQ(metric(run_point("e6_overlap", 0), "cycles"), 2656);
  EXPECT_EQ(metric(run_point("e6_overlap", 1), "cycles"), 2140);
}

TEST(Golden, E7DprAreaAndAmortization) {
  const auto area = run_point("e7_dpr_area");
  EXPECT_EQ(metric(area, "dpr_lut"), 468);
  EXPECT_EQ(metric(area, "dpr_ff"), 671);
  EXPECT_EQ(metric(area, "static_lut"), 936);
  EXPECT_EQ(metric(area, "static_ff"), 1206);
  // The free ICAP port commits each of the 7 swaps inside its tick at
  // start + stream + overhead, one cycle before the host sees it.
  const auto b1 = run_point("e7_dpr", 0);  // batch_len=1
  EXPECT_EQ(metric(b1, "dpr_cycles"), 11463);
  EXPECT_EQ(metric(b1, "static_cycles"), 2496);
  EXPECT_EQ(metric(b1, "swaps"), 7);
  const auto b128 = run_point("e7_dpr", 4);  // batch_len=128
  EXPECT_EQ(metric(b128, "dpr_cycles"), 328455);
  EXPECT_EQ(metric(b128, "static_cycles"), 319488);
}

TEST(Golden, E8BusPortability) {
  const auto idct = run_point("e8_bus", 0);
  EXPECT_EQ(metric(idct, "ahb"), 296);
  EXPECT_EQ(metric(idct, "axi4"), 304);
  EXPECT_EQ(metric(idct, "axilite"), 422);
  const auto dft = run_point("e8_bus", 1);
  EXPECT_EQ(metric(dft, "ahb"), 3601);
  EXPECT_EQ(metric(dft, "axi4"), 3637);
  EXPECT_EQ(metric(dft, "axilite"), 4609);
}

TEST(Golden, E9JpegCorners) {
  const auto small = run_point("e9_jpeg", 0);  // 32x32 Q25 rle
  EXPECT_EQ(metric(small, "sw"), 80435);
  EXPECT_EQ(metric(small, "hw_seq"), 8176);
  EXPECT_EQ(metric(small, "hw_pipe"), 4919);
  const auto big = run_point("e9_jpeg", 11);  // 96x96 Q75 huffman
  EXPECT_EQ(metric(big, "sw"), 761195);
  EXPECT_EQ(metric(big, "hw_seq"), 110880);
  EXPECT_EQ(metric(big, "hw_pipe"), 69408);
}

TEST(Golden, E10CoupledVsOcp) {
  const auto lat = run_point("e10_latency");
  EXPECT_EQ(metric(lat, "coupled_lat"), 3007);
  EXPECT_EQ(metric(lat, "ocp_lat"), 3601);
  const auto k0 = run_point("e10_overlap", 0);
  EXPECT_EQ(metric(k0, "coupled_total"), 3007);
  EXPECT_EQ(metric(k0, "ocp_total"), 3599);
  const auto k4000 = run_point("e10_overlap", 4);
  EXPECT_EQ(metric(k4000, "coupled_total"), 7007);
  EXPECT_EQ(metric(k4000, "ocp_total"), 4006);
}

TEST(Golden, E11ModelValidation) {
  const auto r = run_point("e11_l3");
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "analytic"), 4812);
  EXPECT_EQ(metric(r, "iss_executed"), 8885);
  EXPECT_EQ(metric(r, "hw"), 296);
  EXPECT_EQ(r.metrics.at("bit_exact").as_str(), "yes");
}

TEST(Golden, E12Contention) {
  const i64 expected[] = {1630, 3232, 4850, 6459};
  for (std::size_t i = 0; i < 4; ++i) {
    const auto r = run_point("e12_contention", i);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_EQ(metric(r, "makespan"), expected[i]) << "ocps=" << (i + 1);
  }
}

// ---------------------------------------------------------------------
// Dispatcher-driven goldens: every point of the service, fault, slot-farm
// and chained-worker families runs through svc::Dispatcher. A digest pins
// every metric of a point (58 metric names across these families, none
// host-timed); the headline cycle count and completion count are spelled
// out so a failure names what moved. serve_jpeg reports a decode rather
// than a service run, so its literals are `cycles` and `blocks`. The
// serial sweep below (Sweep.EveryScenarioCompletesAndPasses) checks them
// against its rows, so no point is simulated twice.

/// FNV-1a over "name=<json value>;" for every metric, in insertion order.
u64 metrics_digest(const exp::Result& r) {
  u64 h = 0xcbf29ce484222325ull;
  for (const auto& [name, value] : r.metrics.entries()) {
    for (const char c : name + "=" + value.json() + ";") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

bool dispatcher_driven(const std::string& scenario) {
  return scenario.rfind("serve_", 0) == 0 || scenario.rfind("dpr_", 0) == 0 ||
         scenario == "chain_service";
}

struct DispatcherGolden {
  const char* scenario;
  std::size_t point;
  i64 cycles;  ///< makespan_cycles (serve_jpeg: cycles)
  i64 count;   ///< completed (serve_jpeg: blocks)
  u64 digest;
};

constexpr DispatcherGolden kDispatcherGoldens[] = {
    // serve_single_ocp: mean_gap 1200, 600, 400
    {"serve_single_ocp", 0, 155389, 120, 0xcb0bf804e79f8e88ull},
    {"serve_single_ocp", 1, 77896, 120, 0xf94efb440a3747dbull},
    {"serve_single_ocp", 2, 54956, 120, 0x007bd8e525f111d9ull},
    // serve_multi_ocp: ocps 1, 2, 4
    {"serve_multi_ocp", 0, 68846, 160, 0x0ce7bb1306c8dc2cull},
    {"serve_multi_ocp", 1, 45983, 160, 0x2cd2d6a81944e982ull},
    {"serve_multi_ocp", 2, 39662, 160, 0xf9f8d38507d4d0b1ull},
    // serve_batching: batch 1, 2, 4, 8, 16
    {"serve_batching", 0, 86221, 192, 0x1af7ded689f87fb7ull},
    {"serve_batching", 1, 81902, 192, 0xf15404be57ff42afull},
    {"serve_batching", 2, 79358, 192, 0xb09a384703f70b73ull},
    {"serve_batching", 3, 78086, 192, 0x433a50784e0c5ac5ull},
    {"serve_batching", 4, 77450, 192, 0x5013b947e827aeb3ull},
    // serve_overload: depth 16, 64
    {"serve_overload", 0, 19756, 44, 0x943fe5f89a51ee92ull},
    {"serve_overload", 1, 39772, 92, 0x09214205af7c1ee8ull},
    {"serve_mixed", 0, 38314, 160, 0x1f5ad1a35c487d53ull},
    // serve_faulty_rate: fault_ppm 100, 500, 2000
    {"serve_faulty_rate", 0, 45754, 100, 0x6a2c64ea7dca1591ull},
    {"serve_faulty_rate", 1, 46724, 100, 0xde4bf75cee5a06c3ull},
    {"serve_faulty_rate", 2, 50332, 100, 0x546d80fbde698c72ull},
    {"serve_faulty_hang", 0, 47685, 80, 0x1c2493e825e3071eull},
    {"serve_faulty_irq", 0, 175308, 60, 0x5d159cf756a7953bull},
    // dpr_adapt: policy static, greedy, hysteresis
    {"dpr_adapt", 0, 359986, 597, 0x6691d8a1a257ac9bull},
    {"dpr_adapt", 1, 416715, 888, 0x2429e957f36ab438ull},
    {"dpr_adapt", 2, 405210, 974, 0x53238c112d82adc3ull},
    // dpr_slots: slots 1, 2, 4
    {"dpr_slots", 0, 154774, 96, 0x55d996aaef63cbe1ull},
    {"dpr_slots", 1, 128655, 96, 0xb5d964d0f6e029f2ull},
    {"dpr_slots", 2, 56714, 96, 0xb8c9b4aeeda5fcd0ull},
    // dpr_icap: icap/cache_kb shared/0, shared/256, free/0, free/256
    {"dpr_icap", 0, 169609, 240, 0x48b6e14bb4e7a4aaull},
    {"dpr_icap", 1, 140902, 240, 0x7f56807fe70968c6ull},
    {"dpr_icap", 2, 109878, 240, 0x812ad12a8cbcf8ecull},
    {"dpr_icap", 3, 109878, 240, 0x81707e195e183ce9ull},
    // chain_service: mode linked, store_forward
    {"chain_service", 0, 49564, 64, 0x9559e116fd399882ull},
    {"chain_service", 1, 52149, 64, 0xa157c5f80257a360ull},
    // serve_jpeg: dim/mode 32/linked, 32/store_forward, 64/linked,
    // 64/store_forward
    {"serve_jpeg", 0, 9244, 16, 0x720bdc2d685e2224ull},
    {"serve_jpeg", 1, 15742, 16, 0x93a60913e95e7275ull},
    {"serve_jpeg", 2, 37042, 64, 0x2c4d5f5871887323ull},
    {"serve_jpeg", 3, 63034, 64, 0xd8fb80e9f9166286ull},
};

/// Check every pinned point against a full serial sweep's rows, which
/// come in registry order and, within a scenario, in points() order.
void expect_dispatcher_goldens(const std::vector<exp::Result>& results) {
  std::map<std::string, std::vector<const exp::Result*>> rows;
  for (const auto& r : results) rows[r.scenario].push_back(&r);
  std::size_t points = 0;
  for (const auto& spec : registry().scenarios()) {
    if (dispatcher_driven(spec.name)) points += spec.point_count();
  }
  EXPECT_EQ(points, std::size(kDispatcherGoldens))
      << "a dispatcher-driven point is not pinned";
  for (const DispatcherGolden& g : kDispatcherGoldens) {
    SCOPED_TRACE(std::string(g.scenario) + " point " +
                 std::to_string(g.point));
    const auto& scenario_rows = rows[g.scenario];
    ASSERT_LT(g.point, scenario_rows.size());
    const exp::Result& r = *scenario_rows[g.point];
    const bool decode = std::string(g.scenario) == "serve_jpeg";
    EXPECT_EQ(metric(r, decode ? "cycles" : "makespan_cycles"), g.cycles);
    EXPECT_EQ(metric(r, decode ? "blocks" : "completed"), g.count);
    EXPECT_EQ(metrics_digest(r), g.digest);
  }
}

/// DPRF's headline claim, the one that spans grid points: on dpr_adapt's
/// shifted demand mix the hysteresis scheduler must beat static slot
/// assignment on availability (completed / jobs).
void expect_dpr_claim(const std::vector<exp::Result>& results) {
  std::map<std::string, double> availability;
  for (const auto& r : results) {
    if (r.scenario != "dpr_adapt") continue;
    availability[r.params.get_str("policy")] =
        static_cast<double>(metric(r, "completed")) /
        static_cast<double>(metric(r, "jobs"));
  }
  ASSERT_EQ(availability.size(), 3u);
  EXPECT_GT(availability["hysteresis"], availability["static"])
      << "the swap scheduler lost to static slot assignment";
}

// ---------------------------------------------------------------------
// Sweep engine.

TEST(Sweep, EveryScenarioCompletesAndPasses) {
  const auto outcome = exp::run_sweep(registry(), on_workers(1));
  EXPECT_EQ(outcome.failed, 0u);
  for (const auto& r : outcome.results) {
    EXPECT_TRUE(r.ok) << r.scenario << " " << r.params.str() << ": "
                      << r.error;
  }
  // Every registered scenario contributed its full point count.
  std::size_t expected = 0;
  for (const auto& spec : registry().scenarios()) {
    expected += spec.point_count();
  }
  EXPECT_EQ(outcome.results.size(), expected);
  expect_dispatcher_goldens(outcome.results);
  expect_dpr_claim(outcome.results);
}

TEST(Sweep, FilterSelectsByNameExperimentAndTitle) {
  const auto by_name = exp::expand_jobs(registry(), "e4_transfer");
  EXPECT_EQ(by_name.size(), 18u);
  const auto by_exp = exp::expand_jobs(registry(), "E12");
  EXPECT_EQ(by_exp.size(), 4u);
  const auto multi = exp::expand_jobs(registry(), "e4_transfer,E12");
  EXPECT_EQ(multi.size(), 22u);
  EXPECT_TRUE(exp::expand_jobs(registry(), "no_such_scenario").empty());
}

TEST(Sweep, ParallelBitIdenticalToSerial) {
  const auto jobs = exp::expand_jobs(registry(), "");
  const auto serial = exp::run_sweep(registry(), on_workers(1));
  const auto parallel = exp::run_sweep(registry(), on_workers(8));
  ASSERT_EQ(serial.results.size(), jobs.size());
  ASSERT_EQ(parallel.results.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].spec->deterministic) continue;  // host-clock metrics
    EXPECT_TRUE(same_payload(serial.results[i], parallel.results[i]))
        << jobs[i].spec->name << " " << jobs[i].params.str();
  }
}

TEST(Sweep, RunCtxThreadsSeedAndTracePath) {
  exp::Registry r;
  exp::ScenarioSpec spec = named_spec(
      "ctx_spec", [](const exp::ParamMap&, const exp::RunContext& ctx,
                     exp::Result& res) {
        res.add_metric("seed", static_cast<i64>(ctx.seed));
        res.add_metric("traced", ctx.trace_path.empty() ? 0 : 1);
      });
  spec.grid = {{.name = "i", .values = {1, 2}}};
  spec.default_seed = 7;
  r.add(std::move(spec));

  // Default: the spec's own seed, no tracing.
  auto outcome = exp::run_sweep(r, on_workers(1));
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_EQ(outcome.results[0].metrics.get_int("seed"), 7);
  EXPECT_EQ(outcome.results[0].metrics.get_int("traced"), 0);

  // --seed overrides, --trace names one file per grid point.
  exp::SweepOptions options = on_workers(1);
  options.seed = 42u;
  options.trace_stem = "tr";
  const auto jobs = exp::expand_jobs(r, options);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].ctx.seed, 42u);
  EXPECT_EQ(jobs[0].ctx.trace_path, "tr_ctx_spec_0.vcd");
  EXPECT_EQ(jobs[1].ctx.trace_path, "tr_ctx_spec_1.vcd");
}

// ---------------------------------------------------------------------
// The service-point runner: every dispatcher-driven family writes the
// same artifacts and warm-boots the same way.

bool file_exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(ServicePoint, EveryFamilyWritesItsArtifacts) {
  const std::string dir = ::testing::TempDir();
  for (const std::string name :
       {"serve_faulty_hang", "dpr_slots", "chain_service"}) {
    SCOPED_TRACE(name);
    const std::string stem = dir + "service_point_" + name;
    exp::RunContext ctx;
    ctx.trace_path = stem + ".vcd";
    ctx.trace_events_path = stem + ".trace.json";
    ctx.snapshot_path = stem + ".snap";
    const exp::Result r = run_point(name, 0, ctx);
    EXPECT_TRUE(r.ok) << r.error;
    EXPECT_GT(metric(r, "trace_events"), 0);
    for (const std::string& path :
         {ctx.trace_path, ctx.trace_events_path,
          ctx.trace_events_path + ".metrics.json", ctx.snapshot_path}) {
      EXPECT_TRUE(file_exists(path)) << path;
    }
  }

  // The fault-armed image warm-boots its own configuration, and the
  // point's invariants (quarantine, no failed job) still hold. Its hangs
  // fired in the template's run, so this run injects and sees none.
  exp::RunContext warm;
  warm.restore_path = dir + "service_point_serve_faulty_hang.snap";
  const exp::Result r = run_point("serve_faulty_hang", 0, warm);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(metric(r, "completed"), 80);
  EXPECT_EQ(metric(r, "injected"), metric(r, "faults"));

  // The linked chain's image warm-boots its own point, whose link moves
  // only this run's words, and is refused by the store-and-forward one,
  // whose launch protocol does not fit that microcode.
  warm.restore_path = dir + "service_point_chain_service.snap";
  const exp::Result linked = run_point("chain_service", 0, warm);
  EXPECT_TRUE(linked.ok) << linked.error;
  EXPECT_EQ(metric(linked, "link_words"), 64 * metric(linked, "completed"));
  const exp::Result other = run_point("chain_service", 1, warm);
  EXPECT_FALSE(other.ok);
  EXPECT_NE(other.error.find("'chain' is set"), std::string::npos)
      << other.error;
}

TEST(ServicePoint, SchedulePointRefusesRestoreInsteadOfColdBooting) {
  exp::RunContext ctx;
  ctx.restore_path = ::testing::TempDir() + "no_such_image.snap";
  const exp::Result r = run_point("dpr_slots", 0, ctx);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("--restore"), std::string::npos) << r.error;
  EXPECT_FALSE(r.metrics.has("completed")) << "the point served anyway";
}

TEST(Sweep, ExceptionBecomesFailedResult) {
  exp::Registry r;
  r.add(named_spec("boom", [](const exp::ParamMap&, const exp::RunContext&,
                             exp::Result&) { throw SimError("deliberate"); }));
  const auto outcome = exp::run_sweep(r, on_workers(1));
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_FALSE(outcome.results[0].ok);
  EXPECT_NE(outcome.results[0].error.find("deliberate"), std::string::npos);
  EXPECT_EQ(outcome.failed, 1u);
}

}  // namespace
}  // namespace ouessant
