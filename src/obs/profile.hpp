// Sampling profiler: job-coherent 1-in-N trace arming
// (docs/observability.md "Fleet-scale observability").
//
// Full tracing records every bus beat and every job span — affordable
// for one SoC, not for a fleet of shards. The profiler keeps the PR 4
// tracer hooks installed but arms them for a deterministic, seeded
// subset of jobs: `sampled(job_id)` hashes the job id against the
// profile seed and selects 1 in `period` jobs. Sampling is
// job-COHERENT: a selected job is traced end-to-end (enqueue instant,
// flow arrows, dispatch span, retire span), so flow arrows in the
// viewer always connect — there are no half-sampled jobs.
//
// Passivity: `sampled()` is a pure function of (seed, period, job_id)
// with no kernel interaction and no mutable state, so arming a
// profiler — at any period — cannot perturb sim clocks, Stats or
// payloads. The fleet-observability tier-1 guard asserts this
// bit-identity on a 16-shard fleet.
#pragma once

#include "obs/tracer.hpp"
#include "util/types.hpp"

namespace ouessant::obs {

struct ProfileConfig {
  /// Sample 1 in `period` jobs; 1 = trace everything (PR 4 behaviour).
  u64 period = 64;
  /// Hash seed: different seeds select different (deterministic) job
  /// subsets, so repeated profiling runs can widen coverage.
  u64 seed = 0x0B5E'5EEDull;
};

class SamplingProfiler {
 public:
  SamplingProfiler(EventTracer& tracer, ProfileConfig cfg);

  /// True when @p job_id is in the sampled subset. Pure and stateless:
  /// callable any number of times, in any order, from any layer, and
  /// always consistent for one job — the property that keeps sampling
  /// job-coherent across enqueue/dispatch/retire sites.
  [[nodiscard]] bool sampled(u64 job_id) const;

  [[nodiscard]] EventTracer& tracer() const { return tracer_; }

 private:
  EventTracer& tracer_;
  ProfileConfig cfg_;
};

}  // namespace ouessant::obs
