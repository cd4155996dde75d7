// Tests for the offload service layer: the bounded JobQueue, latency
// accounting, the load generators, and whole OffloadService runs
// (determinism, gating and fast-path differentials, overload, batching,
// the service ledger).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/collect.hpp"
#include "sim/kernel.hpp"
#include "svc/job.hpp"
#include "svc/latency.hpp"
#include "svc/ledger.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "util/rng.hpp"

namespace ouessant::svc {
namespace {

Job make(u64 id, JobKind kind, Priority prio = Priority::kNormal) {
  Job j;
  j.id = id;
  j.kind = kind;
  j.prio = prio;
  return j;
}

TEST(JobQueue, BoundedRejectOnFull) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(make(0, JobKind::kIdct)));
  EXPECT_TRUE(q.push(make(1, JobKind::kIdct)));
  EXPECT_FALSE(q.push(make(2, JobKind::kIdct)));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.accepted(), 2u);
  EXPECT_EQ(q.rejected(), 1u);
  EXPECT_EQ(q.peak_depth(), 2u);

  // Draining frees capacity again.
  EXPECT_EQ(q.take(JobKind::kIdct, 1).size(), 1u);
  EXPECT_TRUE(q.push(make(3, JobKind::kIdct)));
  EXPECT_EQ(q.rejected(), 1u);
}

TEST(JobQueue, PriorityClassThenFifo) {
  JobQueue q(8);
  q.push(make(0, JobKind::kIdct, Priority::kNormal));
  q.push(make(1, JobKind::kIdct, Priority::kNormal));
  q.push(make(2, JobKind::kIdct, Priority::kHigh));
  q.push(make(3, JobKind::kIdct, Priority::kHigh));

  const auto batch = q.take(JobKind::kIdct, 4);
  ASSERT_EQ(batch.size(), 4u);
  // High class first, FIFO within each class.
  EXPECT_EQ(batch[0].id, 2u);
  EXPECT_EQ(batch[1].id, 3u);
  EXPECT_EQ(batch[2].id, 0u);
  EXPECT_EQ(batch[3].id, 1u);
  EXPECT_TRUE(q.empty());
}

TEST(JobQueue, TakeFiltersByKindAndBatchLimit) {
  JobQueue q(8);
  q.push(make(0, JobKind::kIdct));
  q.push(make(1, JobKind::kDft));
  q.push(make(2, JobKind::kIdct));
  q.push(make(3, JobKind::kIdct));

  const auto idct = q.take(JobKind::kIdct, 2);
  ASSERT_EQ(idct.size(), 2u);
  EXPECT_EQ(idct[0].id, 0u);
  EXPECT_EQ(idct[1].id, 2u);

  EXPECT_TRUE(q.take(JobKind::kFir, 4).empty());
  const auto dft = q.take(JobKind::kDft, 4);
  ASSERT_EQ(dft.size(), 1u);
  EXPECT_EQ(dft[0].id, 1u);
  EXPECT_EQ(q.size(), 1u);  // one IDCT job left
}

TEST(LatencyStats, NearestRankPercentiles) {
  LatencyStats s;
  for (u64 v = 1; v <= 100; ++v) s.add(v);
  EXPECT_EQ(s.count(), 100u);
  EXPECT_EQ(s.percentile(50), 50u);
  EXPECT_EQ(s.percentile(95), 95u);
  EXPECT_EQ(s.percentile(99), 99u);
  EXPECT_EQ(s.percentile(100), 100u);
  EXPECT_EQ(s.min(), 1u);
  EXPECT_EQ(s.max(), 100u);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);

  LatencyStats one;
  one.add(7);
  EXPECT_EQ(one.percentile(1), 7u);
  EXPECT_EQ(one.percentile(99), 7u);

  const LatencyStats empty;
  EXPECT_EQ(empty.percentile(50), 0u);
}

TEST(Workload, OpenLoopScheduleIsSeededAndSorted) {
  WorkloadConfig cfg;
  cfg.jobs = 50;
  cfg.mean_gap = 300.0;
  cfg.kinds = {JobKind::kIdct, JobKind::kDft};
  cfg.high_fraction = 0.5;

  util::Rng rng_a(cfg.seed);
  util::Rng rng_b(cfg.seed);
  const auto a = open_loop_arrivals(cfg, rng_a, 10);
  const auto b = open_loop_arrivals(cfg, rng_b, 10);
  ASSERT_EQ(a.size(), 50u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].prio, b[i].prio);
    EXPECT_EQ(a[i].payload, b[i].payload);
    EXPECT_EQ(a[i].payload.size(), block_words(a[i].kind));
    if (i > 0) {
      EXPECT_GT(a[i].arrival, a[i - 1].arrival);  // gaps >= 1
    }
  }

  util::Rng rng_c(cfg.seed + 1);
  const auto c = open_loop_arrivals(cfg, rng_c, 10);
  bool differs = false;
  for (std::size_t i = 0; i < c.size(); ++i) {
    differs = differs || c[i].arrival != a[i].arrival;
  }
  EXPECT_TRUE(differs);
}

/// FNV-1a over every job's id, arrival, kind, priority, payload length
/// and payload words, in schedule order.
u64 jobs_digest(const std::vector<Job>& jobs) {
  u64 h = 0xcbf29ce484222325ull;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ull;
    }
  };
  for (const Job& job : jobs) {
    mix(job.id);
    mix(job.arrival);
    mix(static_cast<u64>(job.kind));
    mix(static_cast<u64>(job.prio));
    mix(job.payload.size());
    for (const u32 w : job.payload) mix(w);
  }
  return h;
}

/// Each generator's digest at two seeds and two mixes, labelled.
std::vector<std::pair<std::string, u64>> generator_digests() {
  struct Mix {
    const char* name;
    std::vector<JobKind> kinds;
    double high_fraction;
  };
  const Mix mixes[] = {
      {"idct+dft", {JobKind::kIdct, JobKind::kDft}, 0.25},
      {"fir+jpeg+jpeg_chain",
       {JobKind::kFir, JobKind::kJpegBlock, JobKind::kJpegChain},
       0.5}};
  std::vector<std::pair<std::string, u64>> out;
  for (const Mix& mix : mixes) {
    for (const u64 seed : {kDefaultServiceSeed, u64{424242}}) {
      const std::string at =
          std::string(mix.name) + " seed " + std::to_string(seed);
      WorkloadConfig cfg;
      cfg.jobs = 40;
      cfg.mean_gap = 300.0;
      cfg.kinds = mix.kinds;
      cfg.high_fraction = mix.high_fraction;
      cfg.seed = seed;
      util::Rng rng(seed);
      out.emplace_back("open_loop_arrivals " + at,
                       jobs_digest(open_loop_arrivals(cfg, rng, 64)));
      // make_job goes on drawing from the same stream, as a closed loop
      // does after its first jobs.
      std::vector<Job> closed;
      for (u64 id = 0; id < 12; ++id) {
        closed.push_back(make_job(id, 1000 + 7 * id, cfg, rng));
      }
      out.emplace_back("make_job " + at, jobs_digest(closed));
      std::vector<std::pair<JobKind, double>> weights;
      std::vector<std::pair<JobKind, double>> reversed;
      for (std::size_t k = 0; k < mix.kinds.size(); ++k) {
        weights.emplace_back(mix.kinds[k], 1.0 + 3.0 * k);
        reversed.emplace_back(mix.kinds[k],
                              1.0 + 3.0 * (mix.kinds.size() - 1 - k));
      }
      const std::vector<WorkloadPhase> phases = {
          {.jobs = 25, .mean_gap = 400.0, .mix = weights,
           .high_fraction = mix.high_fraction},
          {.jobs = 15, .mean_gap = 150.0, .mix = reversed,
           .high_fraction = 0.0}};
      out.emplace_back("phased_arrivals " + at,
                       jobs_digest(phased_arrivals(phases, seed, 64)));
    }
  }
  return out;
}

TEST(Workload, GeneratorsArePinned) {
  // Snapshot images pin payloads only indirectly; these digests pin
  // every job the generators draw. They were recorded from a build
  // before phased_arrivals reserved its schedule.
  const u64 expected[] = {
      0xc8c3ddefa25a3ebeull, 0x72f59a376fc5d6c3ull, 0xf6a12c0a86b9be31ull,
      0xcb206e946c353c07ull, 0x7e254bea27e50129ull, 0xc92cf32162eaf2cbull,
      0xdd6bd96760532b7aull, 0xb9ed53ab94075a49ull, 0xedc588de5ed1ce4cull,
      0x82d996e54fd08f43ull, 0x5303a66e8a337636ull, 0x74ff70293b750044ull};
  const auto got = generator_digests();
  ASSERT_EQ(got.size(), std::size(expected));
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].second, expected[i]) << got[i].first;
  }
}

// -- whole-service runs ------------------------------------------------

ServiceConfig small_service(std::size_t queue_depth = 64) {
  ServiceConfig cfg;
  cfg.ocps = {OcpSpec{.kind = JobKind::kIdct, .max_batch = 1}};
  cfg.queue_depth = queue_depth;
  return cfg;
}

WorkloadConfig small_workload(u32 jobs = 24) {
  WorkloadConfig wl;
  wl.jobs = jobs;
  wl.mean_gap = 400.0;
  return wl;
}

void expect_same_report(const ServiceReport& a, const ServiceReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.installs, b.installs);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(a.end, b.end);
  for (const double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.wait.percentile(p), b.wait.percentile(p));
    EXPECT_EQ(a.service.percentile(p), b.service.percentile(p));
    EXPECT_EQ(a.e2e.percentile(p), b.e2e.percentile(p));
  }
}

TEST(OffloadService, ServesOpenLoopWorkload) {
  OffloadService service(small_service());
  const ServiceReport rep = service.run(small_workload());
  EXPECT_EQ(rep.completed, 24u);
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_EQ(rep.e2e.count(), 24u);
  EXPECT_GT(rep.makespan(), 0u);
  ASSERT_EQ(rep.workers.size(), 1u);
  EXPECT_EQ(rep.workers[0].jobs, 24u);
  // Per-sample e2e = wait + service, so the extremes must agree.
  EXPECT_EQ(rep.e2e.max(),
            rep.e2e.percentile(100));
  EXPECT_GE(rep.e2e.min(), rep.service.min());
}

TEST(OffloadService, RunIsSingleShot) {
  OffloadService service(small_service());
  (void)service.run(small_workload());
  EXPECT_THROW((void)service.run(small_workload()), ConfigError);
}

TEST(OffloadService, RejectsUnservedKind) {
  OffloadService service(small_service());
  WorkloadConfig wl = small_workload();
  wl.kinds = {JobKind::kDft};  // no DFT worker configured
  EXPECT_THROW((void)service.run(wl), ConfigError);
}

TEST(OffloadService, PayloadOtherThanOneBlockIsRefusedAtTheDoor) {
  // A launch stages one block per batch slot: a longer payload would
  // overwrite the next slot's input. Both ways in refuse such a job
  // before it is queued, so no run holds one (a restore refuses it too).
  const WorkloadConfig wl = small_workload(4);
  util::Rng rng(wl.seed);
  std::vector<Job> schedule = open_loop_arrivals(wl, rng, 64);
  ASSERT_EQ(schedule.size(), 4u);
  schedule[2].payload.push_back(0);
  OffloadService scheduled(small_service());
  try {
    (void)scheduled.run_schedule(schedule);
    ADD_FAILURE() << "a 65-word payload was scheduled";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "job " + std::to_string(schedule[2].id) +
                  " holds 65 payload words, not one idct block of 64"),
              std::string::npos)
        << e.what();
  }

  OffloadService submitted(small_service());
  submitted.begin(wl);
  Dispatcher& d = submitted.dispatcher();
  const Cycle before = submitted.soc().cpu().now();
  Job short_job = schedule[0];
  short_job.payload.resize(63);
  try {
    (void)d.submit_now(short_job);
    ADD_FAILURE() << "a 63-word payload was submitted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("holds 63 payload words"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(submitted.soc().cpu().now(), before);  // no enqueue charged
  EXPECT_TRUE(d.queue().empty());
  EXPECT_TRUE(d.submit_now(schedule[0]));
}

TEST(OffloadService, WorkerWindowsMustFitTheSram) {
  // Worker i stages in the 1 MiB window at 0x40100000 + i MiB. On the
  // default 16 MiB SRAM (ending at 0x41000000) fifteen windows fit and a
  // sixteenth starts at the end: construction refuses it, naming it.
  ServiceConfig sixteen;
  sixteen.ocps.assign(16, OcpSpec{.kind = JobKind::kIdct, .max_batch = 1});
  try {
    OffloadService service(sixteen);
    ADD_FAILURE() << "16 workers constructed on a 16 MiB SRAM";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker 15's window 0x41000000"), std::string::npos)
        << what;
    EXPECT_NE(what.find("ends at 0x41000000"), std::string::npos) << what;
  }

  ServiceConfig fifteen = sixteen;
  fifteen.ocps.resize(15);
  fifteen.queue_depth = 256;
  OffloadService service(fifteen);
  WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 40.0;
  const ServiceReport rep = service.run(wl);
  EXPECT_EQ(rep.completed, wl.jobs);
  EXPECT_GT(rep.workers[14].jobs, 0u);
}

TEST(OffloadService, IdenticalSeedsGiveIdenticalReports) {
  OffloadService sa(small_service());
  OffloadService sb(small_service());
  const ServiceReport a = sa.run(small_workload());
  const ServiceReport b = sb.run(small_workload());
  expect_same_report(a, b);

  WorkloadConfig other = small_workload();
  other.seed = kDefaultServiceSeed + 1;
  OffloadService sc(small_service());
  const ServiceReport c = sc.run(other);
  EXPECT_NE(c.end, a.end);  // a different seed moves the schedule
}

/// Counts the cycles it is due on, every @p period cycles, and sleeps on
/// a self-armed timer in between: kernel ballast that wakes on its own.
class Metronome : public sim::Component {
 public:
  Metronome(sim::Kernel& k, std::string name, Cycle period)
      : sim::Component(k, std::move(name)), period_(period), due_(k.now()) {}
  void tick_compute() override {
    if (kernel().now() < due_) return;
    ++beats_;
    due_ += period_;
    wake_at(due_);
  }
  [[nodiscard]] bool is_quiescent() const override {
    return kernel().now() < due_;
  }
  [[nodiscard]] u64 beats() const { return beats_; }

 private:
  Cycle period_;
  Cycle due_;
  u64 beats_ = 0;
};

TEST(OffloadService, GatingDifferentialIsBitIdentical) {
  // Config 1: one worker. Config 2: sixteen workers, the most the
  // service's 16-source IRQ controller takes (67 components), padded
  // with 64 metronomes on staggered timers, so the kernel's awake set
  // spans three 64-bit words and changes in all of them while jobs run.
  struct Config {
    ServiceConfig service;
    WorkloadConfig workload;
    int metronomes;
  };
  ServiceConfig wide;
  wide.ocps.assign(16, OcpSpec{.kind = JobKind::kIdct, .max_batch = 1});
  wide.queue_depth = 256;
  wide.soc.sram_bytes = 32u << 20;  // room for sixteen worker windows
  WorkloadConfig busy;
  busy.jobs = 160;
  busy.mean_gap = 40.0;
  for (const Config& cfg : {Config{small_service(), small_workload(), 0},
                            Config{wide, busy, 64}}) {
    OffloadService gated(cfg.service);
    OffloadService free_running(cfg.service);
    free_running.soc().kernel().set_gating(false);
    std::vector<std::unique_ptr<Metronome>> ballast_a, ballast_b;
    for (int i = 0; i < cfg.metronomes; ++i) {
      const std::string name = "metronome" + std::to_string(i);
      const Cycle period = 97 + 7 * static_cast<Cycle>(i);
      ballast_a.push_back(
          std::make_unique<Metronome>(gated.soc().kernel(), name, period));
      ballast_b.push_back(std::make_unique<Metronome>(
          free_running.soc().kernel(), name, period));
    }
    if (cfg.metronomes > 0) {
      EXPECT_GT(gated.soc().kernel().component_count(), 128u);
    }
    const ServiceReport a = gated.run(cfg.workload);
    const ServiceReport b = free_running.run(cfg.workload);
    expect_same_report(a, b);
    EXPECT_EQ(a.completed, cfg.workload.jobs);
    EXPECT_EQ(obs::invariant_stats(gated.soc().kernel().stats()),
              obs::invariant_stats(free_running.soc().kernel().stats()));
    for (int i = 0; i < cfg.metronomes; ++i) {
      EXPECT_GT(ballast_a[i]->beats(), 0u);
      EXPECT_EQ(ballast_a[i]->beats(), ballast_b[i]->beats()) << i;
    }
  }
}

TEST(OffloadService, FastPathDifferentialIsBitIdentical) {
  // Four IDCT workers contending for one AHB: the batched bus windows
  // and the decode cache must be invisible to every report field and
  // Stats counter. The fast run pins its exact engagement counts.
  const auto multi_ocp = [] {
    ServiceConfig cfg;
    for (int i = 0; i < 4; ++i) {
      cfg.ocps.push_back(OcpSpec{.kind = JobKind::kIdct, .max_batch = 1});
    }
    cfg.queue_depth = 256;
    return cfg;
  };
  WorkloadConfig wl;
  wl.jobs = 160;
  wl.mean_gap = 40.0;
  OffloadService fast(multi_ocp());
  OffloadService slow(multi_ocp());
  slow.soc().bus().set_batching(false);
  for (std::size_t i = 0; i < slow.soc().ocp_count(); ++i) {
    slow.soc().ocp(i).controller().set_decode_cache(false);
  }
  expect_same_report(fast.run(wl), slow.run(wl));
  EXPECT_EQ(obs::invariant_stats(fast.soc().kernel().stats()),
            obs::invariant_stats(slow.soc().kernel().stats()));
  u64 decode_hits = 0;
  for (std::size_t i = 0; i < fast.soc().ocp_count(); ++i) {
    decode_hits += fast.soc().ocp(i).controller().decode_cache_hits();
  }
  EXPECT_EQ(fast.soc().bus().batched_chunks(), 965u);
  EXPECT_EQ(decode_hits, 620u);
  EXPECT_EQ(slow.soc().bus().batched_chunks(), 0u);
}

TEST(OffloadService, OverloadRejectsWithoutLivelock) {
  ServiceConfig cfg = small_service(/*queue_depth=*/4);
  OffloadService service(cfg);
  WorkloadConfig wl = small_workload(/*jobs=*/40);
  wl.mean_gap = 50.0;  // far beyond one OCP's service rate
  const ServiceReport rep = service.run(wl);
  EXPECT_GT(rep.rejected, 0u);
  EXPECT_EQ(rep.completed + rep.rejected, 40u);
  EXPECT_EQ(rep.e2e.count(), rep.completed);
  EXPECT_LE(rep.peak_depth, 4u);
}

TEST(OffloadService, ClosedLoopBatchingCoalesces) {
  ServiceConfig cfg;
  cfg.ocps = {OcpSpec{.kind = JobKind::kIdct, .max_batch = 4}};
  OffloadService service(cfg);
  WorkloadConfig wl;
  wl.mode = LoadMode::kClosedLoop;
  wl.jobs = 32;
  wl.clients = 8;
  const ServiceReport rep = service.run(wl);
  EXPECT_EQ(rep.completed, 32u);
  EXPECT_EQ(rep.rejected, 0u);
  // With 8 clients feeding a max_batch=4 worker, coalescing must kick
  // in: strictly fewer launches than jobs.
  EXPECT_LT(rep.batches, rep.completed);
}

TEST(OffloadService, ChainedWorkerServesJpegChain) {
  for (const auto mode :
       {drv::ChainMode::kLinked, drv::ChainMode::kStoreForward}) {
    ServiceConfig cfg;
    cfg.ocps.clear();  // chains-only service
    cfg.chains = {ChainSpec{.max_batch = 2, .mode = mode}};
    OffloadService service(std::move(cfg));
    WorkloadConfig wl;
    wl.jobs = 16;
    wl.mean_gap = 1'000.0;
    wl.kinds = {JobKind::kJpegChain};
    const ServiceReport rep = service.run(wl);
    EXPECT_EQ(rep.completed, 16u) << drv::chain_mode_name(mode);
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_TRUE(rep.chained);
    if (mode == drv::ChainMode::kLinked) {
      // Every completed block's 64 intermediate words went over the link.
      EXPECT_EQ(rep.link_words, 16u * 64u);
      EXPECT_EQ(rep.link_busy_cycles, rep.link_words);  // wire speed
    } else {
      EXPECT_EQ(rep.link_words, 0u);  // ablation: SRAM bounce instead
    }
  }
}

TEST(OffloadService, JpegChainViaOcpSpecIsRejected) {
  ServiceConfig cfg;
  cfg.ocps = {OcpSpec{.kind = JobKind::kJpegChain}};
  EXPECT_THROW(OffloadService service(std::move(cfg)), ConfigError);
}

TEST(OffloadService, ChainedRunsAreSeedDeterministic) {
  auto run_once = [] {
    ServiceConfig cfg;
    cfg.ocps.clear();
    cfg.chains = {ChainSpec{.max_batch = 4}};
    OffloadService service(std::move(cfg));
    WorkloadConfig wl;
    wl.jobs = 24;
    wl.mean_gap = 600.0;
    wl.kinds = {JobKind::kJpegChain};
    return service.run(wl);
  };
  const ServiceReport a = run_once();
  const ServiceReport b = run_once();
  expect_same_report(a, b);
  EXPECT_EQ(a.link_words, b.link_words);
}

TEST(OffloadService, ServiceLedgerCoversWorkersIcapAndLinks) {
  // A static IDCT worker, a greedy 2-slot DFT/FIR farm that must swap a
  // slot to FIR, and a linked dequant->IDCT chain: the one service
  // ledger carries a track per worker, the farm's configuration port
  // and the chain's link, and closes every one against wall cycles.
  ServiceConfig cfg;
  cfg.ocps = {OcpSpec{.kind = JobKind::kIdct, .max_batch = 2}};
  cfg.queue_depth = 64;
  cfg.slots.count = 2;
  cfg.slots.candidates = {JobKind::kDft, JobKind::kFir};
  cfg.slots.initial = {JobKind::kDft, JobKind::kDft};
  cfg.slots.max_batch = 2;
  cfg.slots.policy = SwapPolicy::kGreedyQueueDepth;
  cfg.chains = {ChainSpec{.max_batch = 2, .mode = drv::ChainMode::kLinked}};
  OffloadService service(std::move(cfg));
  WorkloadConfig wl;
  wl.jobs = 40;
  wl.mean_gap = 400.0;
  wl.kinds = {JobKind::kIdct, JobKind::kDft, JobKind::kFir,
              JobKind::kJpegChain};
  const ServiceReport rep = service.run(wl);
  ASSERT_EQ(rep.completed, 40u);
  EXPECT_GT(rep.swaps_completed, 0u);
  EXPECT_GT(rep.link_words, 0u);

  const obs::CycleLedger ledger = validate_service_ledger(service);
  std::set<std::string> tracks;
  for (u32 t = 0; t < ledger.track_count(); ++t) {
    tracks.insert(ledger.track_name(t));
  }
  ASSERT_EQ(service.dispatcher().worker_count(), 4u);  // static, 2 slots, chain
  for (std::size_t i = 0; i < service.dispatcher().worker_count(); ++i) {
    EXPECT_EQ(tracks.count("svc.worker." + std::to_string(i)), 1u) << i;
  }
  EXPECT_EQ(tracks.count("icap.svc_icap"), 1u);
  EXPECT_EQ(tracks.count("chain.svc_chain0_link"), 1u);
}

}  // namespace
}  // namespace ouessant::svc
