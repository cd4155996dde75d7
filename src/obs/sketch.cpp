#include "obs/sketch.hpp"

#include <cmath>

namespace ouessant::obs {

QuantileSketch::QuantileSketch(double relative_error)
    : alpha_(relative_error) {
  if (!(alpha_ > 0.0) || !(alpha_ < 1.0)) {
    throw SimError("QuantileSketch: relative_error must be in (0, 1)");
  }
  log_gamma_ = std::log((1.0 + alpha_) / (1.0 - alpha_));
}

i64 QuantileSketch::bucket_index(u64 value) const {
  // value > 0 here (zeros take the dedicated exact bucket). Bucket i
  // covers (gamma^(i-1), gamma^i]; ceil(ln(v) / ln(gamma)) lands v in
  // it, with the epsilon-free edge case v == 1 -> i == 0.
  const double idx = std::log(static_cast<double>(value)) / log_gamma_;
  return static_cast<i64>(std::ceil(idx - 1e-9));
}

u64 QuantileSketch::bucket_value(i64 index) const {
  // Representative of (gamma^(i-1), gamma^i]: 2*gamma^i / (gamma + 1),
  // the point with equal relative error to both bucket edges.
  const double gamma = (1.0 + alpha_) / (1.0 - alpha_);
  const double rep =
      2.0 * std::exp(static_cast<double>(index) * log_gamma_) / (gamma + 1.0);
  u64 v = static_cast<u64>(std::llround(rep));
  if (v < 1) v = 1;
  // The exact extremes are tracked; never report beyond them.
  if (v < min_) v = min_;
  if (v > max_) v = max_;
  return v;
}

void QuantileSketch::add(u64 value) {
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ += static_cast<double>(value);
  if (value == 0) {
    ++zero_count_;
  } else {
    ++buckets_[bucket_index(value)];
  }
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (alpha_ != other.alpha_) {
    throw SimError(
        "QuantileSketch::merge: relative-error mismatch (merging sketches "
        "with different bounds would silently void the guarantee)");
  }
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  zero_count_ += other.zero_count_;
  sum_ += other.sum_;
  for (const auto& [idx, n] : other.buckets_) buckets_[idx] += n;
}

u64 QuantileSketch::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Nearest-rank, matching svc::LatencyStats::percentile: rank =
  // ceil(p/100 * n), clamped to [1, n].
  u64 rank = static_cast<u64>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  if (rank <= zero_count_) return 0;
  u64 seen = zero_count_;
  for (const auto& [idx, n] : buckets_) {
    seen += n;
    if (seen >= rank) return bucket_value(idx);
  }
  return max_;  // unreachable: counts sum to count_
}

bool QuantileSketch::operator==(const QuantileSketch& rhs) const {
  return alpha_ == rhs.alpha_ && count_ == rhs.count_ &&
         zero_count_ == rhs.zero_count_ && min_ == rhs.min_ &&
         max_ == rhs.max_ && sum_ == rhs.sum_ && buckets_ == rhs.buckets_;
}

void QuantileSketch::state(snap::Fields& f) {
  f.expect<double>("alpha", alpha_);
  f.field("count", count_);
  f.field("zeros", zero_count_);
  f.field("min", min_);
  f.field("max", max_);
  f.field("sum", sum_);
  // Buckets travel as flat (index, count) pairs.
  std::vector<u64> flat;
  flat.reserve(buckets_.size() * 2);
  for (const auto& [idx, n] : buckets_) {
    flat.push_back(static_cast<u64>(idx));
    flat.push_back(n);
  }
  f.field("buckets", flat);
  if (f.restoring()) {
    if (flat.size() % 2 != 0) f.fail("odd bucket stream length");
    buckets_.clear();
    for (std::size_t i = 0; i < flat.size(); i += 2) {
      buckets_[static_cast<i64>(flat[i])] = flat[i + 1];
    }
  }
}

}  // namespace ouessant::obs
