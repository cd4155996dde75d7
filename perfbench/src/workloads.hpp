// The benchmark's three workloads. Each is run as a sequence of rounds;
// one round builds its stack(s) from nothing, serves a fixed, seeded
// amount of work, checks every simulated result, and warm-boots a clone
// of what it built. A round's simulated side is a pure function of
// (workload, seed, size); its host side is what the benchmark measures.
//
//   ocp_stream  one IDCT OCP on the AHB, polling driver, back-to-back
//               64-word invocations with fresh seeded inputs, each
//               checked against the software IDCT.
//   serve_mix   one OffloadService with static IDCT and DFT workers, a
//               linked dequantize->IDCT chain and a 2-slot hysteresis
//               DPR farm, serving a phased open-loop schedule whose
//               demand swings between FIR and JPEG-block.
//   fleet_fork  fleet::run_fleet: 16 shards forked from one warmed
//               IDCT/DFT/FIR template, profiler and SLO monitor armed.
//               Traced rounds run a replica of run_fleet built from
//               public calls, which must reproduce its per-shard report.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

enum class Size { kSmoke, kFull };

/// One round's outcome.
struct Round {
  /// Simulated-side fingerprint: cycles, digests of Stats::all() and of
  /// the outputs, and the simulated counts. Traced and untraced rounds
  /// of one seed must agree on it exactly.
  std::map<std::string, u64> fingerprint;
  /// Per-layer simulated counts (the per_layer metrics' numerators).
  std::map<std::string, u64> counts;

  u64 cycles = 0;        ///< simulated cycles credited to sim_cps
  double timed_s = 0.0;  ///< host seconds those cycles took
  double setup_s = 0.0;  ///< host seconds before the timed phase
  /// Host microseconds per operation (one 64-word block of work).
  std::vector<double> op_us;
  /// Host milliseconds per warm boot (build + restore from an image).
  std::vector<double> fork_ms;
  u64 ops = 0;     ///< operations attempted
  u64 failed = 0;  ///< operations failed or unverified
  std::vector<std::string> errors;

  // Host times of single layers, for the traced run's per-layer metrics.
  std::vector<double> construct_ms;  ///< per stack construction
  std::vector<double> save_ms;       ///< snapshot() + serialize()
  std::vector<double> restore_ms;    ///< restore() per stack
  std::vector<double> call_us;       ///< per simulation-advancing call
  std::vector<double> rss_per_stack_mb;
  double boot_ms = 0.0;   ///< build + warm-up before serving
  /// The serving phase; counts["serve.ticks"] and ["serve.beats"] are
  /// the kernel ticks and bus beats it covers.
  double serve_ms = 0.0;
  u64 wait_p99_cycles = 0;  ///< simulated queue wait, serve_mix

  /// Multiply every host time of the round by @p f.
  void scale_host_times(double f);

  /// Count @p n failed operations, for one reason.
  void fail(std::string why, u64 n = 1) {
    failed += n;
    errors.push_back(std::move(why));
  }
};

/// Run one round of @p workload ("ocp_stream", "serve_mix",
/// "fleet_fork"). With a tracer, spans are recorded around every public
/// call the round makes. Simulator exceptions are caught and counted as
/// one failed operation.
[[nodiscard]] Round run_round(const std::string& workload, u64 seed, Size size,
                              SpanTracer* tracer);

[[nodiscard]] bool known_workload(const std::string& workload);

/// Seed of round @p index of a run seeded with @p seed.
[[nodiscard]] u64 round_seed(u64 seed, u64 index);

/// "key=value key=value ..." in key order.
[[nodiscard]] std::string fingerprint_text(
    const std::map<std::string, u64>& fp);

/// The seed of the pinned check round every run starts with.
inline constexpr u64 kPinnedSeed = 1;

}  // namespace perfbench
