// Offload-service soak driver for the tier-1 TSan job.
//
// Runs a closed-loop workload (default 10k jobs total) against 4-OCP
// OffloadService instances, sharded across worker threads: each thread
// owns a fully independent service (its own Soc, kernel, OCPs), exactly
// like the parallel sweep engine isolates grid points. Under TSan any
// mutable state accidentally shared between "isolated" simulations is a
// reported race; under any build a lost job, a rejected job (closed
// loop never overruns the queue) or a verification mismatch fails the
// process.
//
// Usage: svc_soak [--jobs N] [--total J]
//   --jobs N    worker threads / service shards (default 4)
//   --total J   jobs summed across all shards (default 10000)
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "svc/service.hpp"
#include "util/parse.hpp"

namespace {

struct ShardResult {
  ouessant::u64 jobs = 0;
  ouessant::u64 completed = 0;
  ouessant::u64 rejected = 0;
  ouessant::u64 makespan = 0;
  std::string error;
};

void run_shard(unsigned shard, ouessant::u32 jobs, ShardResult& out) {
  using namespace ouessant;
  try {
    svc::ServiceConfig cfg;
    cfg.ocps = {{.kind = svc::JobKind::kIdct, .max_batch = 4},
                {.kind = svc::JobKind::kDft, .max_batch = 2},
                {.kind = svc::JobKind::kFir, .max_batch = 2},
                {.kind = svc::JobKind::kJpegBlock, .max_batch = 2}};
    cfg.queue_depth = 128;
    svc::OffloadService service(cfg);

    svc::WorkloadConfig wl;
    wl.mode = svc::LoadMode::kClosedLoop;
    wl.jobs = jobs;
    wl.clients = 16;
    wl.kinds = {svc::JobKind::kIdct, svc::JobKind::kDft, svc::JobKind::kFir,
                svc::JobKind::kJpegBlock};
    wl.high_fraction = 0.25;
    wl.seed = svc::kDefaultServiceSeed + shard;

    const svc::ServiceReport rep = service.run(wl);
    out.jobs = rep.jobs;
    out.completed = rep.completed;
    out.rejected = rep.rejected;
    out.makespan = rep.makespan();
  } catch (const std::exception& e) {
    out.error = e.what();
  }
}

}  // namespace

int main(int argc, char** argv) {
  unsigned shards = 4;
  ouessant::u64 total = 10'000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool jobs = arg == "--jobs";
    if ((!jobs && arg != "--total") || i + 1 >= argc) {
      std::cerr << "usage: svc_soak [--jobs N] [--total J]\n";
      return 2;
    }
    // A thread per shard: --jobs stays a sane thread count, and --total
    // a job count each shard's u32 can hold.
    const ouessant::u64 max = jobs ? 1024 : UINT32_MAX;
    const std::optional<ouessant::u64> v =
        ouessant::util::read_uint(argv[++i], max);
    if (!v || *v == 0) {
      std::cerr << "svc_soak: " << arg << " takes an integer in 1.." << max
                << ", not '" << argv[i] << "'\n";
      return 2;
    }
    if (jobs) {
      shards = static_cast<unsigned>(*v);
    } else {
      total = *v;
    }
  }

  std::vector<ShardResult> results(shards);
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    // Spread the total over the shards, first shards taking the excess.
    const ouessant::u64 jobs = total / shards + (s < total % shards ? 1 : 0);
    threads.emplace_back(run_shard, s, static_cast<ouessant::u32>(jobs),
                         std::ref(results[s]));
  }
  for (auto& t : threads) t.join();

  bool ok = true;
  ouessant::u64 completed = 0;
  for (unsigned s = 0; s < shards; ++s) {
    const ShardResult& r = results[s];
    if (!r.error.empty()) {
      std::cerr << "shard " << s << " FAILED: " << r.error << "\n";
      ok = false;
      continue;
    }
    if (r.completed != r.jobs || r.rejected != 0) {
      std::cerr << "shard " << s << " lost work: completed=" << r.completed
                << " rejected=" << r.rejected << " of " << r.jobs << "\n";
      ok = false;
    }
    completed += r.completed;
    std::cout << "shard " << s << ": " << r.completed << " jobs in "
              << r.makespan << " cycles\n";
  }
  if (!ok) return 1;
  std::cout << "svc_soak OK: " << completed << " jobs across " << shards
            << " service shards\n";
  return 0;
}
