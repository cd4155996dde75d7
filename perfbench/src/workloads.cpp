#include "workloads.hpp"

#include <exception>
#include <memory>
#include <sstream>
#include <utility>

#include "drv/session.hpp"
#include "fleet/fleet.hpp"
#include "obs/collect.hpp"
#include "obs/profile.hpp"
#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"
#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/idct.hpp"
#include "snap/snapshot.hpp"
#include "svc/service.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace ouessant;

namespace {

double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

u64 stats_digest(const sim::Stats& stats) {
  Digest d;
  for (const auto& [key, value] : stats.all()) {
    d.add(key);
    d.add(value);
  }
  return d.value();
}

/// Kernel, bus and controller counters of one SoC, as absolute values
/// (callers subtract a baseline where a stack inherits history).
std::map<std::string, u64> soc_counts(platform::Soc& soc) {
  std::map<std::string, u64> c;
  const sim::SchedulerStats& s = soc.kernel().sched_stats();
  c["sim.ticks"] = s.ticks;
  c["sim.wakeups"] = s.wakeups;
  c["sim.ff_cycles"] = s.fast_forward_cycles;
  const bus::MasterStats m = soc.bus().master_totals();
  c["bus.beats"] = m.beats;
  c["bus.transactions"] = m.transactions;
  c["bus.wait_cycles"] = m.wait_cycles + m.stall_cycles;
  c["bus.batched_chunks"] = soc.bus().batched_chunks();
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    const core::Controller& ctrl = soc.ocp(i).controller();
    const core::ControllerStats cs = ctrl.stats();
    c["fifo.words"] += cs.words_to_rac + cs.words_from_rac;
    c["ouessant.instructions"] += cs.instructions;
    c["ouessant.exec_wait_cycles"] += cs.exec_wait_cycles;
    c["ouessant.decode_hits"] += ctrl.decode_cache_hits();
    c["ouessant.decode_misses"] += ctrl.decode_cache_misses();
  }
  return c;
}

void add_into(std::map<std::string, u64>& into,
              const std::map<std::string, u64>& from) {
  for (const auto& [k, v] : from) into[k] += v;
}

std::map<std::string, u64> minus(std::map<std::string, u64> a,
                                 const std::map<std::string, u64>& b) {
  for (const auto& [k, v] : b) a[k] -= v;
  return a;
}

// ---------------------------------------------------------------------
// ocp_stream

constexpr Addr kProgBase = 0x4000'0000;
constexpr Addr kInBase = 0x4001'0000;
constexpr Addr kOutBase = 0x4002'0000;
constexpr u32 kBlock = 64;

/// One IDCT OCP on the default AHB SoC with its polling session.
struct OcpStack {
  platform::Soc soc;
  rac::IdctRac idct{soc.kernel(), "idct"};
  core::Ocp& ocp{soc.add_ocp(idct)};
  drv::OcpSession session{soc.cpu(), soc.sram(), ocp,
                          {.prog_base = kProgBase,
                           .in_base = kInBase,
                           .out_base = kOutBase,
                           .in_words = kBlock,
                           .out_words = kBlock}};
};

/// A seeded block of IDCT coefficients in the 12-bit JPEG range.
std::vector<u32> coeff_block(util::Rng& rng) {
  std::vector<u32> in(kBlock);
  for (u32& w : in) w = util::to_word(rng.range(-2048, 2047));
  return in;
}

/// Snapshot @p live, then warm-boot a fresh stack of the same shape from
/// the serialized image and check it landed on the same clock and
/// Stats. Records save/fork/restore/construct times on @p r.
template <typename Stack, typename Build, typename Snap, typename Restore>
void fork_check(Round& r, SpanTracer* tr, const char* construct_span,
                const Stack& live, Build build,
                Snap snapshot_of, Restore restore_into,
                const sim::Kernel& live_kernel) {
  std::vector<u8> bytes;
  {
    const auto t0 = Clock::now();
    auto sp = SpanTracer::span(tr, "snap.save");
    bytes = snapshot_of(live).serialize();
    r.save_ms.push_back(ms_since(t0));
  }
  r.fingerprint["snap.bytes"] = bytes.size();
  r.counts["snap.bytes"] += bytes.size();

  const double rss0 = current_rss_mb();
  const auto fork_t0 = Clock::now();
  std::unique_ptr<Stack> clone;
  {
    auto sp = SpanTracer::span(tr, construct_span, 1);
    const auto t0 = Clock::now();
    clone = build();
    r.construct_ms.push_back(ms_since(t0));
  }
  {
    auto sp = SpanTracer::span(tr, "snap.restore", 1);
    const snap::Snapshot image = snap::Snapshot::deserialize(bytes);
    const auto t0 = Clock::now();
    restore_into(*clone, image);
    r.restore_ms.push_back(ms_since(t0));
  }
  r.fork_ms.push_back(ms_since(fork_t0));
  r.rss_per_stack_mb.push_back(current_rss_mb() - rss0);

  const sim::Kernel& ck = clone->soc.kernel();
  if (ck.now() != live_kernel.now() ||
      stats_digest(ck.stats()) != stats_digest(live_kernel.stats())) {
    r.fail("warm-booted clone differs from the stack it was forked from");
  }
}

Round ocp_stream(u64 seed, Size size, SpanTracer* tr) {
  // Short rounds (about 15 ms of serving) give a run hundreds of
  // rounds, each scaled by probe readings taken close around it.
  const u32 invocations = size == Size::kSmoke ? 64 : 512;
  Round r;
  util::Rng rng(seed);
  auto round_span = SpanTracer::span(tr, "bench.round", seed);

  const auto setup_t0 = Clock::now();
  std::unique_ptr<OcpStack> st;
  {
    auto sp = SpanTracer::span(tr, "platform.construct");
    st = std::make_unique<OcpStack>();
    r.construct_ms.push_back(ms_since(setup_t0));
  }
  {
    auto sp = SpanTracer::span(tr, "drv.install");
    st->session.install(core::build_stream_program(
        {.in_words = kBlock, .out_words = kBlock, .burst = kBlock}));
  }
  std::vector<u32> in = coeff_block(rng);
  {
    auto sp = SpanTracer::span(tr, "drv.put_input", 0);
    st->session.put_input(in);
  }
  r.setup_s = seconds_since(setup_t0);
  r.boot_ms = 1e3 * r.setup_s;

  sim::Kernel& k = st->soc.kernel();
  const auto before = soc_counts(st->soc);
  Digest out_digest;
  r.op_us.reserve(invocations);
  for (u32 i = 0; i < invocations; ++i) {
    if (i > 0) {
      in = coeff_block(rng);
      auto sp = SpanTracer::span(tr, "drv.put_input", i);
      st->session.put_input(in);
    }
    const Cycle c0 = k.now();
    const auto t0 = Clock::now();
    {
      auto sp = SpanTracer::span(tr, "drv.run_poll", i);
      st->session.run_poll();
    }
    const double dt = seconds_since(t0);
    r.cycles += k.now() - c0;
    r.timed_s += dt;
    r.op_us.push_back(dt * 1e6);
    ++r.ops;

    auto sp = SpanTracer::span(tr, "bench.check", i);
    const std::vector<u32> got = st->session.get_output();
    if (got != svc::reference_output(svc::JobKind::kIdct, in)) {
      r.fail("ocp_stream: invocation " + std::to_string(i) +
             " differs from the software IDCT");
    }
    for (const u32 w : got) out_digest.add(w);
  }
  r.call_us = r.op_us;
  r.serve_ms = 1e3 * r.timed_s;

  {
    auto sp = SpanTracer::span(tr, "obs.ledger");
    obs::validate_soc_ledger(st->soc);
  }
  const auto after = soc_counts(st->soc);
  r.counts = after;
  const auto served = minus(after, before);
  r.counts["serve.ticks"] = served.at("sim.ticks");
  r.counts["serve.beats"] = served.at("bus.beats");
  r.counts["sim.cycles"] = k.now();

  r.fingerprint = after;
  r.fingerprint["cycles"] = k.now();
  r.fingerprint["stats"] = stats_digest(k.stats());
  r.fingerprint["out"] = out_digest.value();
  r.fingerprint["invocations"] = invocations;

  fork_check(
      r, tr, "platform.construct", *st,
      [] { return std::make_unique<OcpStack>(); },
      [](const OcpStack& s) { return s.soc.snapshot(); },
      [](OcpStack& s, const snap::Snapshot& img) { s.soc.restore(img); }, k);
  return r;
}

// ---------------------------------------------------------------------
// serve_mix

svc::ServiceConfig serve_config() {
  svc::ServiceConfig cfg;
  cfg.ocps = {svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 4},
              svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 4}};
  cfg.chains = {svc::ChainSpec{.max_batch = 4,
                               .mode = drv::ChainMode::kLinked,
                               .link_cycles_per_word = 1}};
  cfg.slots.count = 2;
  cfg.slots.candidates = {svc::JobKind::kFir, svc::JobKind::kJpegBlock};
  cfg.slots.initial = {svc::JobKind::kFir, svc::JobKind::kJpegBlock};
  cfg.slots.policy = svc::SwapPolicy::kHysteresis;
  cfg.slots.cache_bytes = 256 * 1024;  // holds all four slot images
  cfg.slots.icap_burst_words = 256;
  cfg.queue_depth = 512;
  return cfg;
}

/// Phases alternate between FIR and JPEG-block demand over a steady
/// IDCT/DFT/chain background, a quarter of the jobs high priority. Half
/// of each phase's jobs want the farm kind the previous phase did not
/// ask for, so the hysteresis scheduler moves both slots at every shift.
/// At a 300-cycle mean gap the backlog peaks during the swaps and
/// drains within the phase: near saturation, and no job is ever
/// rejected by the 512-deep queue (rejections start below a 200-cycle
/// gap).
std::vector<svc::WorkloadPhase> serve_phases(Size size) {
  const u32 phases = size == Size::kSmoke ? 2 : 8;
  const u32 jobs = size == Size::kSmoke ? 150 : 300;
  std::vector<svc::WorkloadPhase> out;
  for (u32 p = 0; p < phases; ++p) {
    const bool fir_hot = p % 2 == 0;
    out.push_back({.jobs = jobs,
                   .mean_gap = 300.0,
                   .mix = {{svc::JobKind::kIdct, 2.0},
                           {svc::JobKind::kDft, 2.0},
                           {svc::JobKind::kJpegChain, 2.0},
                           {fir_hot ? svc::JobKind::kFir
                                    : svc::JobKind::kJpegBlock,
                            6.0}},
                   .high_fraction = 0.25});
  }
  return out;
}

/// Jobs per host-time window for serve_mix's per-operation samples.
constexpr u64 kOpWindow = 32;

struct ServeStack {
  svc::OffloadService service{serve_config()};
  platform::Soc& soc{service.soc()};
};

Round serve_mix(u64 seed, Size size, SpanTracer* tr) {
  Round r;
  auto round_span = SpanTracer::span(tr, "bench.round", seed);

  const auto setup_t0 = Clock::now();
  std::unique_ptr<ServeStack> st;
  {
    auto sp = SpanTracer::span(tr, "svc.construct");
    st = std::make_unique<ServeStack>();
    r.construct_ms.push_back(ms_since(setup_t0));
  }
  std::vector<svc::Job> schedule;
  {
    auto sp = SpanTracer::span(tr, "svc.phased_arrivals");
    schedule = svc::phased_arrivals(serve_phases(size), seed, /*start=*/64);
  }
  r.setup_s = seconds_since(setup_t0);
  r.boot_ms = 1e3 * r.setup_s;

  // Completion digest plus host timestamps every kOpWindow completions:
  // the per-job host cost is sampled as window time / kOpWindow.
  Digest done_digest;
  std::vector<Clock::time_point> marks;
  marks.reserve(schedule.size() / kOpWindow + 2);
  u64 done = 0;
  st->service.set_job_observer([&](const svc::Job& job) {
    done_digest.add(job.id);
    done_digest.add(static_cast<u64>(job.worker));
    done_digest.add(job.dispatch);
    done_digest.add(job.complete);
    if (++done % kOpWindow == 0) marks.push_back(Clock::now());
  });

  sim::Kernel& k = st->soc.kernel();
  const auto before = soc_counts(st->soc);
  svc::ServiceReport rep;
  const Cycle c0 = k.now();
  const auto t0 = Clock::now();
  marks.push_back(t0);
  {
    auto sp = SpanTracer::span(tr, "svc.run_schedule");
    rep = st->service.run_schedule(std::move(schedule));
  }
  r.timed_s = seconds_since(t0);
  r.cycles = k.now() - c0;
  r.serve_ms = 1e3 * r.timed_s;
  r.call_us.push_back(1e6 * r.timed_s);
  for (std::size_t i = 1; i < marks.size(); ++i) {
    r.op_us.push_back(
        std::chrono::duration<double, std::micro>(marks[i] - marks[i - 1])
            .count() /
        static_cast<double>(kOpWindow));
  }
  r.ops = rep.jobs;

  {
    auto sp = SpanTracer::span(tr, "obs.ledger");
    obs::CycleLedger ledger;
    obs::collect_soc(ledger, st->soc);
    const Cycle wall = k.now();
    obs::collect_icap(ledger, *st->service.icap(), wall);
    for (const auto& link : st->service.chain_links()) {
      obs::collect_chain(ledger, *link, wall);
    }
    ledger.validate(wall);
  }
  if (rep.completed + rep.rejected != rep.jobs) {
    r.fail("serve_mix: lost jobs");
  }
  if (rep.rejected > 0) r.fail("serve_mix: jobs rejected", rep.rejected);
  if (rep.swaps_started != rep.swaps_completed) {
    r.fail("serve_mix: swap left in flight");
  }

  const auto after = soc_counts(st->soc);
  r.counts = after;
  const auto served = minus(after, before);
  r.counts["serve.ticks"] = served.at("sim.ticks");
  r.counts["serve.beats"] = served.at("bus.beats");
  r.counts["sim.cycles"] = k.now();
  r.counts["fifo.link_words"] = rep.link_words;
  r.counts["fifo.link_busy_cycles"] = rep.link_busy_cycles;
  r.counts["dpr.swaps"] = rep.swaps_completed;
  r.counts["dpr.preemptions"] = rep.preemptions;
  r.counts["dpr.icap_busy_cycles"] = rep.icap_busy_cycles;
  const bus::MasterStats& icap = st->service.icap()->master_stats();
  r.counts["dpr.icap_wait_cycles"] = icap.wait_cycles + icap.stall_cycles;
  r.counts["dpr.cache_hits"] = rep.cache_hits;
  r.counts["dpr.cache_misses"] = rep.cache_misses;
  r.counts["svc.batches"] = rep.batches;
  r.counts["svc.completed"] = rep.completed;
  r.wait_p99_cycles = rep.wait.percentile(99.0);

  r.fingerprint = r.counts;
  r.fingerprint["cycles"] = k.now();
  r.fingerprint["stats"] = stats_digest(k.stats());
  r.fingerprint["out"] = done_digest.value();
  r.fingerprint["jobs"] = rep.jobs;
  r.fingerprint["rejected"] = rep.rejected;
  r.fingerprint["wait_p99"] = rep.wait.percentile(99.0);
  r.fingerprint["e2e_p99"] = rep.e2e.percentile(99.0);

  fork_check(
      r, tr, "svc.construct", *st,
      [] { return std::make_unique<ServeStack>(); },
      [](const ServeStack& s) { return s.service.snapshot(); },
      [](ServeStack& s, const snap::Snapshot& img) { s.service.restore(img); },
      k);
  return r;
}

// ---------------------------------------------------------------------
// fleet_fork

fleet::FleetConfig fleet_config(u64 seed, Size size) {
  fleet::FleetConfig cfg;
  cfg.shards = 16;
  cfg.base_seed = seed;
  cfg.service.ocps = {
      svc::OcpSpec{.kind = svc::JobKind::kIdct, .max_batch = 2},
      svc::OcpSpec{.kind = svc::JobKind::kDft, .max_batch = 2},
      svc::OcpSpec{.kind = svc::JobKind::kFir, .max_batch = 2}};
  cfg.service.queue_depth = 128;
  cfg.warmup.jobs = size == Size::kSmoke ? 48 : 240;
  cfg.warmup.mean_gap = 200.0;
  cfg.warmup.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft,
                      svc::JobKind::kFir};
  cfg.warmup.seed = seed ^ 0x5EED'0000ull;
  cfg.shard_load = cfg.warmup;
  cfg.shard_load.jobs = size == Size::kSmoke ? 12 : 96;
  cfg.shard_load.high_fraction = 0.25;
  cfg.obs.profiler = true;
  cfg.obs.slo = true;
  cfg.obs.slo_config.classes = {
      obs::SloObjective{.name = "high", .latency_cycles = 20'000,
                        .target = 0.99},
      obs::SloObjective{.name = "normal", .latency_cycles = 60'000,
                        .target = 0.95}};
  cfg.obs.slo_config.long_window = 40'000;
  cfg.obs.slo_config.short_window = 5'000;
  return cfg;
}

/// What both the run_fleet path and the replica must agree on.
struct ShardOutcome {
  u32 index = 0;
  svc::ServiceReport report;
  u64 digest = 0;
};

void fleet_fingerprint(Round& r, u64 template_cycles, u64 snapshot_bytes,
                       const std::vector<ShardOutcome>& shards,
                       const obs::QuantileSketch& sketch,
                       const obs::SloReport& slo) {
  Digest d;
  u64 jobs = 0, completed = 0, rejected = 0, failed = 0, batches = 0;
  for (const ShardOutcome& s : shards) {
    for (const u64 v : {u64{s.index}, s.report.completed, s.report.rejected,
                        s.report.failed, s.report.start, s.report.end,
                        s.digest, s.report.batches}) {
      d.add(v);
    }
    jobs += s.report.jobs;
    completed += s.report.completed;
    rejected += s.report.rejected;
    failed += s.report.failed;
    batches += s.report.batches;
  }
  u64 alerts = 0, slo_jobs = 0, good = 0;
  for (const obs::SloClassReport& c : slo.classes) {
    alerts += c.alerts;
    slo_jobs += c.jobs;
    good += c.good;
  }
  auto& fp = r.fingerprint;
  fp["template.cycles"] = template_cycles;
  fp["snap.bytes"] = snapshot_bytes;
  fp["shards"] = shards.size();
  fp["shards.digest"] = d.value();
  fp["jobs"] = jobs;
  fp["completed"] = completed;
  fp["rejected"] = rejected;
  fp["failed"] = failed;
  fp["svc.batches"] = batches;
  fp["sketch.count"] = sketch.count();
  fp["sketch.p50"] = sketch.percentile(50.0);
  fp["sketch.p99"] = sketch.percentile(99.0);
  fp["sketch.buckets"] = sketch.bucket_count();
  fp["slo.alerts"] = alerts;
  fp["slo.jobs"] = slo_jobs;
  fp["slo.good"] = good;

  r.ops = jobs;
  if (completed + rejected + failed != jobs) r.fail("fleet_fork: lost jobs");
  if (rejected + failed > 0) {
    r.fail("fleet_fork: jobs rejected or failed", rejected + failed);
  }
  if (sketch.count() != completed) r.fail("fleet_fork: sketch count");
  for (const ShardOutcome& s : shards) {
    if (s.report.completed == 0) r.fail("fleet_fork: idle shard");
  }
  r.counts["svc.batches"] += batches;
  r.counts["svc.completed"] += completed;
  r.counts["obs.sketch_buckets"] += sketch.bucket_count();
  r.counts["obs.slo_alerts"] += alerts;
  r.counts["snap.bytes"] += snapshot_bytes;
}

Round fleet_run(u64 seed, Size size) {
  Round r;
  const fleet::FleetConfig cfg = fleet_config(seed, size);
  const auto t0 = Clock::now();
  const fleet::FleetReport rep = fleet::run_fleet(cfg);
  r.timed_s = seconds_since(t0);

  std::vector<ShardOutcome> shards;
  u64 shard_cycles = 0;
  for (const fleet::ShardResult& s : rep.shard_results) {
    shards.push_back({s.index, s.report, s.digest});
    shard_cycles += s.report.makespan();
  }
  // Shards start at the template's snapshot cycle; run_fleet also
  // re-runs shard 0 for its reproducibility check.
  const u64 template_cycles = rep.shard_results.front().report.start;
  r.cycles = template_cycles + shard_cycles +
             rep.shard_results.front().report.makespan();
  r.setup_s =
      (rep.cold_boot_ms + rep.shards * rep.fork_ms_per_shard) / 1e3;
  r.fork_ms.push_back(rep.fork_ms_per_shard);
  r.op_us.push_back(1e6 * r.timed_s / static_cast<double>(rep.total_jobs));

  fleet_fingerprint(r, template_cycles, rep.snapshot_bytes, shards,
                    rep.e2e_sketch, rep.slo);
  if (!rep.reproducible) r.fail("fleet_fork: shard 0 replay diverged");
  if (rep.peak_retained_samples != 0) {
    r.fail("fleet_fork: raw latency samples retained");
  }
  return r;
}

/// One shard of the replica: observability objects first, so the
/// service holding pointers into them is destroyed before they are.
struct ReplicaShard {
  u32 index = 0;
  obs::QuantileSketch sketch;
  std::unique_ptr<obs::EventTracer> prof_tracer;
  std::unique_ptr<obs::SamplingProfiler> profiler;
  std::unique_ptr<obs::SloMonitor> slo;
  Digest digest;
  std::unique_ptr<svc::OffloadService> service;
  std::map<std::string, u64> base;  ///< counters inherited at restore
};

/// run_fleet rebuilt from public calls, with a span around each one.
Round fleet_replica(u64 seed, Size size, SpanTracer* tr) {
  Round r;
  const fleet::FleetConfig cfg = fleet_config(seed, size);
  auto round_span = SpanTracer::span(tr, "bench.round", seed);
  const auto t0 = Clock::now();

  std::unique_ptr<svc::OffloadService> tmpl;
  {
    auto sp = SpanTracer::span(tr, "svc.construct");
    const auto c0 = Clock::now();
    tmpl = std::make_unique<svc::OffloadService>(cfg.service);
    r.construct_ms.push_back(ms_since(c0));
  }
  {
    auto sp = SpanTracer::span(tr, "svc.run");
    (void)tmpl->run(cfg.warmup);
  }
  r.boot_ms = ms_since(t0);
  const u64 template_cycles = tmpl->soc().kernel().now();
  r.counts = soc_counts(tmpl->soc());

  snap::Snapshot image;
  u64 snapshot_bytes = 0;
  {
    const auto s0 = Clock::now();
    {
      auto sp = SpanTracer::span(tr, "snap.snapshot");
      image = tmpl->snapshot();
    }
    auto sp = SpanTracer::span(tr, "snap.serialize");
    snapshot_bytes = image.serialize().size();
    r.save_ms.push_back(ms_since(s0));
  }

  const auto fork_t0 = Clock::now();
  const double rss0 = current_rss_mb();
  std::vector<std::unique_ptr<ReplicaShard>> live;
  for (u32 i = 0; i < cfg.shards; ++i) {
    auto sh = std::make_unique<ReplicaShard>();
    sh->index = i;
    sh->sketch = obs::QuantileSketch(cfg.obs.sketch_error);
    {
      auto sp = SpanTracer::span(tr, "svc.construct", i);
      const auto c0 = Clock::now();
      sh->service = std::make_unique<svc::OffloadService>(cfg.service);
      r.construct_ms.push_back(ms_since(c0));
    }
    svc::OffloadService& svc = *sh->service;
    svc.set_latency_recording(false);
    {
      auto sp = SpanTracer::span(tr, "snap.restore", i);
      const auto c0 = Clock::now();
      svc.restore(image);
      r.restore_ms.push_back(ms_since(c0));
    }
    sh->base = soc_counts(svc.soc());
    {
      auto sp = SpanTracer::span(tr, "obs.arm", i);
      sh->prof_tracer = std::make_unique<obs::EventTracer>(svc.soc().kernel());
      sh->profiler = std::make_unique<obs::SamplingProfiler>(
          *sh->prof_tracer, cfg.obs.profile);
      svc.attach_profiler(*sh->profiler);
      sh->slo = std::make_unique<obs::SloMonitor>(cfg.obs.slo_config);
      ReplicaShard* s = sh.get();
      svc.set_job_observer([s](const svc::Job& job) {
        s->digest.add(job.id);
        s->digest.add(job.queue_wait());
        s->digest.add(job.end_to_end());
        s->sketch.add(job.end_to_end());
        s->slo->record_latency(static_cast<u32>(job.prio), job.complete,
                               job.end_to_end());
      });
      sim::Kernel* kernel = &svc.soc().kernel();
      svc.dispatcher().set_failure_hook([s, kernel](const svc::Job& job) {
        s->slo->record(static_cast<u32>(job.prio), kernel->now(), false);
      });
    }
    {
      auto sp = SpanTracer::span(tr, "svc.begin", i);
      svc::WorkloadConfig load = cfg.shard_load;
      load.seed = cfg.base_seed + i;
      svc.begin(load, /*warm=*/true);
    }
    live.push_back(std::move(sh));
  }
  r.rss_per_stack_mb.push_back((current_rss_mb() - rss0) / cfg.shards);
  r.fork_ms.push_back(ms_since(fork_t0) / cfg.shards);
  r.setup_s = seconds_since(t0);

  const auto serve_t0 = Clock::now();
  std::vector<ShardOutcome> shards(cfg.shards);
  obs::QuantileSketch sketch(cfg.obs.sketch_error);
  obs::SloReport slo;
  u64 shard_cycles = 0;
  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (auto& sh : live) {
      if (sh == nullptr) continue;
      svc::OffloadService& svc = *sh->service;
      if (!svc.finished()) {
        const auto s0 = Clock::now();
        bool done = false;
        {
          auto sp = SpanTracer::span(tr, "svc.step", sh->index);
          done = svc.step();
        }
        r.call_us.push_back(1e6 * seconds_since(s0));
        if (!done) {
          all_done = false;
          continue;
        }
      }
      ShardOutcome& out = shards[sh->index];
      out.index = sh->index;
      {
        auto sp = SpanTracer::span(tr, "svc.finish", sh->index);
        out.report = svc.finish();
      }
      out.digest = sh->digest.value();
      shard_cycles += out.report.makespan();
      const auto served = minus(soc_counts(svc.soc()), sh->base);
      add_into(r.counts, served);
      r.counts["serve.ticks"] += served.at("sim.ticks");
      r.counts["serve.beats"] += served.at("bus.beats");
      {
        auto sp = SpanTracer::span(tr, "obs.merge", sh->index);
        sketch.merge(sh->sketch);
        slo.merge(sh->slo->report());
      }
      sh.reset();
    }
  }
  r.serve_ms = ms_since(serve_t0);
  r.timed_s = seconds_since(t0);
  r.cycles = template_cycles + shard_cycles;
  r.counts["sim.cycles"] = r.cycles;
  r.op_us.push_back(1e6 * r.timed_s /
                    static_cast<double>(cfg.shards * cfg.shard_load.jobs));

  fleet_fingerprint(r, template_cycles, snapshot_bytes, shards, sketch, slo);
  return r;
}

}  // namespace

void Round::scale_host_times(double f) {
  for (double* t : {&timed_s, &setup_s, &boot_ms, &serve_ms}) *t *= f;
  for (std::vector<double>* v :
       {&op_us, &fork_ms, &construct_ms, &save_ms, &restore_ms, &call_us}) {
    for (double& t : *v) t *= f;
  }
}

bool known_workload(const std::string& workload) {
  return workload == "ocp_stream" || workload == "serve_mix" ||
         workload == "fleet_fork";
}

u64 round_seed(u64 seed, u64 index) {
  // splitmix64 of (seed, index): distinct, well-mixed per-round seeds.
  u64 x = seed * 0x9E3779B97F4A7C15ull + index + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Round run_round(const std::string& workload, u64 seed, Size size,
                SpanTracer* tracer) {
  try {
    if (workload == "ocp_stream") return ocp_stream(seed, size, tracer);
    if (workload == "serve_mix") return serve_mix(seed, size, tracer);
    return tracer == nullptr ? fleet_run(seed, size)
                             : fleet_replica(seed, size, tracer);
  } catch (const std::exception& e) {
    Round r;
    r.ops = 1;
    r.fail(workload + ": " + e.what());
    return r;
  }
}

std::string fingerprint_text(const std::map<std::string, u64>& fp) {
  std::ostringstream os;
  bool first = true;
  for (const auto& [k, v] : fp) {
    os << (first ? "" : " ") << k << '=' << v;
    first = false;
  }
  return os.str();
}

}  // namespace perfbench
