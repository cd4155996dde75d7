#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

namespace ouessant::exp {

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::string part =
        s.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!part.empty()) out.push_back(part);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

bool matches_filter(const ScenarioSpec& spec, const std::string& filter) {
  if (filter.empty()) return true;
  for (const std::string& needle : split_commas(filter)) {
    if (spec.name.find(needle) != std::string::npos ||
        spec.experiment.find(needle) != std::string::npos ||
        spec.title.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

std::vector<SweepJob> expand_jobs(const Registry& registry,
                                  const std::string& filter) {
  std::vector<SweepJob> jobs;
  for (const ScenarioSpec& spec : registry.scenarios()) {
    if (!matches_filter(spec, filter)) continue;
    for (ParamMap& point : spec.points()) {
      SweepJob& job = jobs.emplace_back();
      job.spec = &spec;
      job.params = std::move(point);
      job.ctx.seed = spec.default_seed;
    }
  }
  return jobs;
}

std::vector<SweepJob> expand_jobs(const Registry& registry,
                                  const SweepOptions& options) {
  std::vector<SweepJob> jobs = expand_jobs(registry, options.filter);
  const ScenarioSpec* last = nullptr;
  std::size_t point = 0;
  for (SweepJob& job : jobs) {
    RunContext& ctx = job.ctx;
    ctx.seed = options.seed.value_or(ctx.seed);
    ctx.faults = options.faults;
    ctx.restore_path = options.restore_path;
    // One per-spec point counter shared by all artifact kinds, so the
    // VCD, event trace and snapshot of the same run carry the same
    // suffix.
    point = (job.spec == last) ? point + 1 : 0;
    last = job.spec;
    const std::string suffix =
        "_" + job.spec->name + "_" + std::to_string(point);
    if (!options.trace_stem.empty()) {
      ctx.trace_path = options.trace_stem + suffix + ".vcd";
    }
    if (!options.trace_events_stem.empty()) {
      ctx.trace_events_path =
          options.trace_events_stem + suffix + ".trace.json";
    }
    if (!options.snapshot_stem.empty()) {
      ctx.snapshot_path = options.snapshot_stem + suffix + ".snap";
    }
  }
  return jobs;
}

Result run_job(const SweepJob& job) {
  Result r;
  r.scenario = job.spec->name;
  r.experiment = job.spec->experiment;
  r.params = job.params;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    job.spec->run(job.params, job.ctx, r);
  } catch (const std::exception& e) {
    r.fail(e.what());
  } catch (...) {
    r.fail("unknown exception");
  }
  r.host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

SweepOutcome run_sweep(const Registry& registry, const SweepOptions& options) {
  const std::vector<SweepJob> jobs = expand_jobs(registry, options);
  SweepOutcome out;
  out.jobs = options.jobs < 1 ? 1 : options.jobs;
  out.results.resize(jobs.size());

  const auto t0 = std::chrono::steady_clock::now();
  if (out.jobs == 1) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.results[i] = run_job(jobs[i]);
    }
  } else {
    // Shared-index work stealing: workers claim the next job and write
    // its result into the slot reserved for its expansion index, so the
    // output order is independent of scheduling.
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size()) return;
        out.results[i] = run_job(jobs[i]);
      }
    };
    std::vector<std::thread> pool;
    const std::size_t n_workers =
        std::min<std::size_t>(static_cast<std::size_t>(out.jobs), jobs.size());
    pool.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (const Result& r : out.results) {
    if (!r.ok) ++out.failed;
  }
  return out;
}

}  // namespace ouessant::exp
