// Gauges: named u64 probes declared once, and the two writers that
// record them (DESIGN.md §10, docs/observability.md "Gauges").
//
// A stack describes what can be watched as one Gauges list
// (OffloadService::gauges(), platform::standard_probes()), and a writer
// takes the whole list at construction, so its signal or column set is
// fixed before the first sample:
//   VcdTrace        a Value Change Dump any waveform viewer (GTKWave)
//                   opens, mirroring the simulation flow the paper
//                   validates OCP integration with (§V-B);
//   MetricsSampler  an ouessant.metrics.v1 columnar time-series, one row
//                   every N cycles.
// Both are passive: each registers one kernel sampler, and samplers run
// after the commit phase (and for every fast-forwarded cycle), so the
// simulated clock, memory and Stats are bit-identical with or without a
// writer attached. The only cost is host time.
#pragma once

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/types.hpp"

namespace ouessant::obs {

/// One named probe. `width` is its VCD bit width (1..64); `unit` and
/// `desc` fill the metrics.v1 column registry, so consumers can label
/// axes without a side-channel schema.
struct Gauge {
  std::string name;
  unsigned width = 64;
  std::string unit{};
  std::string desc{};
  std::function<u64()> read{};
};
using Gauges = std::vector<Gauge>;

/// Value Change Dump writer: samples every gauge after every clock edge
/// and dumps the values that changed.
class VcdTrace {
 public:
  /// Opens @p path, writes the header declaring @p gauges inside module
  /// @p top, and hooks into @p kernel. Throws ConfigError when the file
  /// cannot be opened, a name repeats or a width is outside 1..64.
  VcdTrace(sim::Kernel& kernel, const std::string& path, Gauges gauges,
           const std::string& top = "soc");
  ~VcdTrace();

  VcdTrace(const VcdTrace&) = delete;
  VcdTrace& operator=(const VcdTrace&) = delete;

  /// Flush and close the file (also done by the destructor).
  void close();

 private:
  void sample(Cycle cycle);

  sim::Kernel& kernel_;
  std::ofstream out_;
  Gauges gauges_;
  std::vector<std::string> ids_;  ///< VCD short identifier per gauge
  std::vector<u64> last_;         ///< last dumped value per gauge
  bool dumped_ = false;           ///< the first sample dumps every gauge
  u64 sampler_id_ = 0;
};

/// Periodic snapshots of gauges into a columnar time-series.
class MetricsSampler {
 public:
  struct Sample {
    Cycle cycle = 0;
    std::vector<u64> values;  ///< one per gauge, in gauge order
  };

  /// Snapshot @p gauges every @p period cycles (the first sample lands
  /// on the first cycle divisible by @p period). Throws ConfigError on a
  /// zero period or a repeated name.
  MetricsSampler(sim::Kernel& kernel, u64 period, Gauges gauges);
  ~MetricsSampler();

  MetricsSampler(const MetricsSampler&) = delete;
  MetricsSampler& operator=(const MetricsSampler&) = delete;

  [[nodiscard]] const std::vector<Sample>& samples() const {
    return samples_;
  }

  /// Serialize as ouessant.metrics.v1 JSON (docs/observability.md).
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;

  /// A metrics.v1 file read back: header registry + sample rows.
  struct File {
    u64 period = 0;
    std::vector<std::string> columns;
    std::vector<std::string> units;         ///< parallel to columns
    std::vector<std::string> descriptions;  ///< parallel to columns
    std::vector<Sample> samples;
  };

 private:
  void sample(Cycle cycle);

  sim::Kernel& kernel_;
  u64 period_;
  Gauges gauges_;
  std::vector<Sample> samples_;
  u64 sampler_id_ = 0;
};

/// Parse an ouessant.metrics.v1 file back (the `ouessant_trace metrics`
/// subcommand — prints each column with its registered unit). Throws
/// SimError on malformed or wrong-schema input, including rows whose
/// width disagrees with the column registry.
[[nodiscard]] MetricsSampler::File read_metrics(const std::string& path);

}  // namespace ouessant::obs
