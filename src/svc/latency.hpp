// Latency accounting for the offload service: integer cycle samples in,
// nearest-rank percentiles out. Everything is a pure function of the
// sample multiset, so identical seeds produce bit-identical histograms —
// the property the --compare-jobs machinery checks for serve_* scenarios.
#pragma once

#include <string>
#include <vector>

#include "exp/result.hpp"
#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::svc {

class LatencyStats : public snap::Stateful<LatencyStats> {
 public:
  void add(u64 sample);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] u64 min() const;
  [[nodiscard]] u64 max() const;
  /// Integer-summed mean (deterministic; double only at the final divide).
  [[nodiscard]] double mean() const;

  /// Nearest-rank percentile, @p p in (0, 100]. 0 when empty.
  [[nodiscard]] u64 percentile(double p) const;

  /// Emit <prefix>_p50/_p95/_p99/_mean/_max into @p result.
  void add_metrics(exp::Result& result, const std::string& prefix) const;

  /// Raw samples in insertion (job completion) order — the ground truth
  /// the trace round-trip test compares per-job span durations against.
  [[nodiscard]] const std::vector<u64>& samples() const { return samples_; }

  // Snapshot field list: the sample vector, under @p name, is the whole
  // state (sum_ is recomputed on restore, so it can never drift from the
  // samples).
  void state(snap::Fields& f, std::string_view name);

 private:
  std::vector<u64> samples_;
  u64 sum_ = 0;
};

}  // namespace ouessant::svc
