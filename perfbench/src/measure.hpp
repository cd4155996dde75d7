// Measurement helpers for the host-speed benchmark: nearest-rank
// percentiles, an FNV-1a digest for simulated fingerprints, process
// memory readings, a host-speed probe, and an in-memory span recorder
// that computes self time per layer and writes Chrome trace-event JSON.
//
// Everything here is host-side bookkeeping around public simulator
// calls; none of it touches simulated state.
#pragma once

#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

using ouessant::u64;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it, @p p in (0, 100]. 0 for an empty set.
[[nodiscard]] double nearest_rank(std::vector<double> samples, double p);

[[nodiscard]] inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 50.0);
}

/// Order-sensitive FNV-1a over 64-bit words and strings.
class Digest {
 public:
  void add(u64 v);
  void add(std::string_view s);
  [[nodiscard]] u64 value() const { return h_; }

 private:
  u64 h_ = 14695981039346656037ull;
};

/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();
/// Current resident set of this process, in MiB.
[[nodiscard]] double current_rss_mb();

/// Host-speed probe: a fixed piece of the benchmark's own code, timed
/// next to each round to measure how fast the host runs at that moment.
/// A shared host slows this process down by up to a third for seconds
/// to minutes at a time, depending on what its neighbours run, and the
/// simulator and the probe slow down together. Scaling a round's host
/// times by kProbeRefMs / probe time cancels most of that, while a
/// change to the simulator moves the scaled times as it moves the raw
/// ones: the probe never calls simulator code.
///
/// The probe is pointer-chasing, branchy and L2-resident like the
/// simulator: random inserts and erases on a std::map of at most 4096
/// keys. Its nodes come from its own arena, not the process heap, so
/// its time does not depend on what the simulator allocated before it.
class SpeedProbe {
 public:
  SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Host ms of one timed pass, after an untimed pass that warms the
  /// caches the round before it may have evicted.
  [[nodiscard]] double measure_ms();

 private:
  static constexpr std::size_t kArenaBytes = 1u << 20;

  u64 pass();

  /// Left uninitialised, so only the pages the map uses (a few hundred
  /// KiB) become resident and count in peak_rss_mb.
  std::unique_ptr<std::byte[]> arena_;
  std::pmr::monotonic_buffer_resource upstream_;
  std::pmr::unsynchronized_pool_resource pool_;
  std::pmr::map<u64, u64> map_;
};

/// The probe's usual time on the development host (4 vCPUs of a
/// Sapphire Rapids Xeon, KVM guest). Scaled host times read as times on
/// that host.
inline constexpr double kProbeRefMs = 1.5;

/// Self time and span count of one layer.
struct LayerTime {
  double self_ms = 0.0;
  u64 spans = 0;
};

/// In-memory span recorder. A span is opened and closed around one
/// public call; spans nest by lexical scope, so the parent of a span is
/// whichever span was open when it started. Span names are
/// "<layer>.<call>" and a layer's self time is the time its spans were
/// open minus the time their child spans covered. Self times are folded
/// as spans close, so they cover every span; only the first
/// @p keep_spans are retained for the trace file.
class SpanTracer {
 public:
  explicit SpanTracer(std::size_t keep_spans);

  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Closes its span on destruction.
  class Scope {
   public:
    Scope(SpanTracer* t, std::string_view name, u64 id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTracer* t_;
  };

  /// Open a span named @p name for invocation/shard @p id; a null
  /// tracer records nothing.
  [[nodiscard]] static Scope span(SpanTracer* t, std::string_view name,
                                  u64 id = 0) {
    return Scope(t, name, id);
  }

  [[nodiscard]] const std::map<std::string, LayerTime>& layers() const {
    return layers_;
  }
  [[nodiscard]] u64 span_count() const { return closed_; }
  [[nodiscard]] std::size_t kept() const { return kept_.size(); }

  /// Chrome trace-event JSON ("X" complete events, microsecond times,
  /// args carrying id, span and parent numbers); @p meta_json is an
  /// already-formatted JSON object stored under "otherData".
  [[nodiscard]] std::string chrome_json(const std::string& meta_json) const;

  /// Aligned text table: layer, self ms, share of all self time, spans.
  [[nodiscard]] std::string layer_table() const;

 private:
  struct Open {
    u64 seq;
    u64 parent;
    u64 id;
    std::string name;
    Clock::time_point start;
    double child_ms = 0.0;
  };
  struct Kept {
    u64 seq;
    u64 parent;
    u64 id;
    std::string name;
    double ts_us;
    double dur_us;
  };

  void open(std::string_view name, u64 id);
  void close();

  std::size_t keep_;
  Clock::time_point origin_;
  u64 next_seq_ = 1;
  u64 closed_ = 0;
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::map<std::string, LayerTime> layers_;
};

/// JSON string literal for @p s (quotes and escapes included).
[[nodiscard]] std::string json_str(std::string_view s);
/// JSON number for @p v with full precision; null when not finite.
[[nodiscard]] std::string json_num(double v);

}  // namespace perfbench
