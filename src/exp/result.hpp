// Structured experiment results.
//
// Every scenario run fills one Result: the parameter point it ran at and
// an ordered list of named metrics (cycle counts, sizes, ratios).
// Results are what the table renderer prints, what the JSON writer
// persists into BENCH_*.json, and what the determinism tests compare
// bit-for-bit between --jobs 1 and --jobs 8.
#pragma once

#include <string>
#include <vector>

#include "exp/param.hpp"

namespace ouessant::exp {

struct Result {
  std::string scenario;    ///< registry name, e.g. "e4_transfer"
  std::string experiment;  ///< paper id, e.g. "E4"
  ParamMap params;         ///< the grid point this run executed
  ParamMap metrics;        ///< named measurements, in insertion order
  bool ok = true;          ///< false => the run failed an invariant
  std::string error;       ///< what went wrong (exception text, mismatch)
  double host_seconds = 0.0;  ///< wall time of this run (not compared)

  /// Record one measurement. Metrics keep insertion order so tables and
  /// JSON are reproducible.
  void add_metric(const std::string& name, Value v) {
    metrics.set(name, std::move(v));
  }

  /// Mark the run failed with @p why (keeps the first failure).
  void fail(const std::string& why) {
    if (ok) {
      ok = false;
      error = why;
    }
  }

  /// Everything except host timing — the payload that must be
  /// bit-identical across --jobs levels.
  friend bool same_payload(const Result& a, const Result& b) {
    return a.scenario == b.scenario && a.experiment == b.experiment &&
           a.params == b.params && a.metrics == b.metrics && a.ok == b.ok &&
           a.error == b.error;
  }
};

/// Render one scenario's results as an aligned text table: parameter
/// columns first, then metric columns — the generic replacement for the
/// bespoke printf tables the bench binaries used to hand-roll.
[[nodiscard]] std::string render_table(const std::vector<Result>& rows);

/// Serialize a whole sweep into the BENCH_*.json schema (see
/// EXPERIMENTS.md): a `meta` object plus one entry per Result.
/// @p meta_lines are extra "key": value lines injected verbatim into the
/// meta object (already JSON-formatted).
[[nodiscard]] std::string to_json(const std::vector<Result>& results,
                                  const std::vector<std::string>& meta_lines);

/// to_json + write to @p path. Throws SimError when the file can't be
/// written.
void write_json(const std::string& path, const std::vector<Result>& results,
                const std::vector<std::string>& meta_lines);

}  // namespace ouessant::exp
