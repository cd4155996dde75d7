#include "svc/latency.hpp"

#include <algorithm>
#include <cmath>

namespace ouessant::svc {

void LatencyStats::add(u64 sample) {
  samples_.push_back(sample);
  sum_ += sample;
}

u64 LatencyStats::min() const {
  return samples_.empty()
             ? 0
             : *std::min_element(samples_.begin(), samples_.end());
}

u64 LatencyStats::max() const {
  return samples_.empty()
             ? 0
             : *std::max_element(samples_.begin(), samples_.end());
}

double LatencyStats::mean() const {
  return samples_.empty()
             ? 0.0
             : static_cast<double>(sum_) /
                   static_cast<double>(samples_.size());
}

u64 LatencyStats::percentile(double p) const {
  if (samples_.empty()) return 0;
  std::vector<u64> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: the smallest sample with at least p% of the mass at or
  // below it. rank in [1, n].
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

void LatencyStats::add_metrics(exp::Result& result,
                               const std::string& prefix) const {
  result.add_metric(prefix + "_p50", percentile(50.0));
  result.add_metric(prefix + "_p95", percentile(95.0));
  result.add_metric(prefix + "_p99", percentile(99.0));
  result.add_metric(prefix + "_mean", mean());
  result.add_metric(prefix + "_max", max());
}

void LatencyStats::state(snap::Fields& f, std::string_view name) {
  f.field(name, samples_);
  if (f.restoring()) {
    sum_ = 0;
    for (u64 s : samples_) sum_ += s;
  }
}

}  // namespace ouessant::svc
