// Mergeable quantile sketch for fleet-scale latency aggregation
// (docs/observability.md "Fleet-scale observability").
//
// DDSketch-style relative-error buckets: values land in logarithmic
// buckets with ratio gamma = (1 + alpha) / (1 - alpha); bucket i covers
// (gamma^(i-1), gamma^i] and is reported as the bucket midpoint in
// relative terms, 2*gamma^i / (gamma + 1), so any quantile estimate q'
// of a true value q satisfies |q' - q| / q <= alpha. Zero values get a
// dedicated exact bucket (latencies of 0 cycles are legal for
// queue-wait histograms).
//
// Merging two sketches adds bucket counts — a commutative, associative
// operation — so a fleet can fold per-shard sketches in ANY retirement
// order and always obtain the identical aggregate: the property raw
// LatencyStats sample merging lacks (and the reason fleet::run_fleet
// retained O(jobs) samples until PR 9 replaced it with this).
//
// Memory: O(log(max/min) / log(gamma)) buckets regardless of how many
// values were added. At the default alpha = 0.01 the full u64 cycle
// range fits in under ~2300 buckets.
#pragma once

#include <map>
#include <string>

#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::obs {

/// Default relative-error bound; docs/observability.md documents this
/// value and the tier-1 fleet-observability guard enforces it.
inline constexpr double kDefaultSketchError = 0.01;

class QuantileSketch : public snap::Stateful<QuantileSketch> {
 public:
  explicit QuantileSketch(double relative_error = kDefaultSketchError);

  /// Record one value (latency in cycles). O(log buckets).
  void add(u64 value);

  /// Fold @p other into this sketch (bucket-count addition). Both
  /// sketches must be configured with the same relative error — merging
  /// across error bounds silently loses the guarantee, so it throws.
  void merge(const QuantileSketch& other);

  /// Nearest-rank quantile estimate for @p p in [0, 100]. Walks the
  /// ordered buckets to the bucket containing rank ceil(p/100 * n) and
  /// returns its representative value (rounded to u64 cycles). The
  /// exact min/max are tracked separately and returned at the extremes,
  /// matching LatencyStats::percentile at p = 0 / 100.
  [[nodiscard]] u64 percentile(double p) const;

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] u64 min() const { return count_ > 0 ? min_ : 0; }
  [[nodiscard]] u64 max() const { return count_ > 0 ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double relative_error() const { return alpha_; }
  /// Occupied buckets (zero bucket excluded) — the memory footprint the
  /// fleet layer asserts on.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// Two sketches are equal when their configuration and full bucket
  /// contents agree — the merge-order-independence tests compare folds.
  [[nodiscard]] bool operator==(const QuantileSketch& rhs) const;

  // -- snapshot field list (docs/fleet.md) -------------------------------
  void state(snap::Fields& f);

 private:
  [[nodiscard]] i64 bucket_index(u64 value) const;
  [[nodiscard]] u64 bucket_value(i64 index) const;

  double alpha_;
  double log_gamma_;
  u64 count_ = 0;
  u64 zero_count_ = 0;
  u64 min_ = 0;
  u64 max_ = 0;
  double sum_ = 0.0;
  std::map<i64, u64> buckets_;  ///< log-bucket index -> count
};

}  // namespace ouessant::obs
