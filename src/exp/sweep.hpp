// SweepRunner: fan a scenario parameter grid across a pool of worker
// threads, one fully isolated simulation per (scenario, point) job.
//
// Determinism contract: the result vector is indexed by job expansion
// order (registry order x grid order), not by completion order, and every
// run builds its entire simulation locally — so the results are
// bit-identical for any --jobs level. The throughput headline of the
// experiment layer is that the E1–E12 sweep scales near-linearly with
// --jobs on a multi-core host.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "exp/result.hpp"
#include "exp/scenario.hpp"

namespace ouessant::exp {

struct SweepOptions {
  /// Worker threads. 1 = run inline on the calling thread; n > 1 spawns
  /// n workers pulling jobs from a shared queue.
  int jobs = 1;
  /// Comma-separated list of substrings; a scenario runs when its name,
  /// experiment id or title contains any of them. Empty = everything.
  std::string filter;
  /// Override every scenario's default_seed (ouessant_bench --seed).
  /// Unset = each spec's built-in seed, so the default sweep stays
  /// bit-identical run to run.
  std::optional<u64> seed;
  /// When non-empty, each job gets a VCD trace written to
  /// "<stem>_<scenario>_<point>.vcd" (ouessant_bench --trace).
  std::string trace_stem;
  /// When non-empty, each job gets a Chrome trace-event JSON (plus a
  /// "<...>.metrics.json" time-series) written to
  /// "<stem>_<scenario>_<point>.trace.json" (--trace-events).
  std::string trace_events_stem;
  /// Fault plan spec forwarded to every job (ouessant_bench --faults).
  /// "" = scenarios keep their built-in plans.
  std::string faults;
  /// When non-empty, each job gets a snapshot destination
  /// "<stem>_<scenario>_<point>.snap" (ouessant_bench --snapshot).
  std::string snapshot_stem;
  /// Snapshot file every job warm-boots from (ouessant_bench --restore).
  /// "" = cold boot. Only meaningful with a --filter that selects the
  /// configuration the snapshot was taken from.
  std::string restore_path;
};

/// One expanded (scenario, grid point) work item.
struct SweepJob {
  const ScenarioSpec* spec = nullptr;
  ParamMap params;
  /// What the run receives: the seed (spec default or --seed override)
  /// and the per-job artifact paths / overrides ("" = off).
  RunContext ctx;
};

struct SweepOutcome {
  std::vector<Result> results;  ///< job expansion order, all jobs levels
  double wall_seconds = 0.0;    ///< whole sweep, host wall clock
  int jobs = 1;
  std::size_t failed = 0;  ///< results with ok == false

  [[nodiscard]] bool all_ok() const { return failed == 0; }
};

/// True when @p spec matches @p filter (see SweepOptions::filter).
[[nodiscard]] bool matches_filter(const ScenarioSpec& spec,
                                  const std::string& filter);

/// Expand every matching scenario's grid into the deterministic job list,
/// each job carrying its spec's default seed.
[[nodiscard]] std::vector<SweepJob> expand_jobs(const Registry& registry,
                                                const std::string& filter);

/// Same, but also stamping each job's context with the options' seed
/// override and per-job artifact paths (see SweepOptions).
[[nodiscard]] std::vector<SweepJob> expand_jobs(const Registry& registry,
                                                const SweepOptions& options);

/// Run one job in isolation; exceptions become result.fail().
[[nodiscard]] Result run_job(const SweepJob& job);

/// Expand and execute the sweep.
[[nodiscard]] SweepOutcome run_sweep(const Registry& registry,
                                     const SweepOptions& options);

}  // namespace ouessant::exp
