// Fleet shard layer (ROADMAP: fleet-scale serving) — the first payoff
// of whole-stack snapshot/restore.
//
// One *template* service stack is booted cold and driven through a
// warm-up workload; its snapshot then seeds M independent shards
// (SoC + service stacks), each warm-booted from the same image with its
// own workload seed. The shards are driven round-robin on the host —
// every simulated clock is independent, so interleaving order cannot
// change any shard's result — and their reports are aggregated into
// fleet metrics: total throughput, availability, mergeable latency
// sketches, and the warm-fork vs cold-boot wall-time comparison that
// justifies the machinery.
//
// Observability (docs/observability.md, "Fleet-scale observability"):
// per-job latencies stream into DDSketch-style quantile sketches as
// shards retire — never into retained raw sample vectors — so fleet
// p99/p99.9 are deterministic regardless of shard count or merge order
// and fleet memory stays O(sketch), not O(jobs). Optional arms: a
// 1-in-N sampling profiler per shard, per-tenant-class SLO burn-rate
// monitors folded into one ouessant.slo.v1 report, and per-shard flight
// recorders dumped automatically when the fault layer quarantines a
// worker or a watchdog expires. All of it is passive: armed or not,
// shard sim clocks are bit-identical (the fleet_passivity guard).
#pragma once

#include <string>
#include <vector>

#include "obs/sketch.hpp"
#include "obs/slo.hpp"
#include "svc/service.hpp"

namespace ouessant::fleet {

/// Observability arms for a fleet run. Everything here is host-side
/// telemetry: arming any combination leaves every shard's simulated
/// clock and payloads bit-identical to the unarmed run.
struct FleetObsConfig {
  /// Relative-error bound for the latency sketches (the documented
  /// guarantee the tier-1 guard enforces).
  double sketch_error = obs::kDefaultSketchError;

  /// Arm the 1-in-N sampling profiler on every shard's dispatcher.
  bool profiler = false;
  obs::ProfileConfig profile{};

  /// Arm per-shard SLO monitors; per-class results merge into
  /// FleetReport::slo. classes must have svc::kNumPriorities entries
  /// (tenant class == job priority).
  bool slo = false;
  obs::SloConfig slo_config{};
  /// When non-empty, the merged ouessant.slo.v1 report is written here.
  std::string slo_report_path;

  /// Arm a per-shard flight recorder (attached to the controller / RAC
  /// / ICAP hooks after restore). When a shard's fault handling
  /// triggers it, the ring is dumped to
  /// `<flight_dump_stem>_shard<i>.flight.json` (no files when the stem
  /// is empty — triggers are still counted).
  bool flight = false;
  std::size_t flight_capacity = 4096;
  std::string flight_dump_stem;

  /// Also stream every job latency into an exact merged LatencyStats
  /// (FleetReport::exact_e2e). O(total jobs) memory — validation runs
  /// only: the tier-1 guard compares sketch quantiles against it.
  bool keep_exact_histogram = false;

  [[nodiscard]] bool armed() const { return profiler || slo || flight; }
};

struct FleetConfig {
  /// Shape of every stack in the fleet (template and shards alike —
  /// warm-boot requires identical construction).
  svc::ServiceConfig service{};
  /// Workload the template serves before the snapshot is taken: it
  /// installs the resident microcode, configures IRQs and warms the
  /// caches the shards inherit.
  svc::WorkloadConfig warmup{};
  /// Per-shard workload; `seed` is overridden with base_seed + index.
  svc::WorkloadConfig shard_load{};
  u32 shards = 8;
  u64 base_seed = 0xF1EE'7000ull;
  /// Re-run shard 0 from a second clone of the same image and check the
  /// two runs are bit-identical (fixed-seed reproducibility proof, via
  /// an order-sensitive digest over every completed job).
  bool verify_reproducible = true;
  FleetObsConfig obs{};
};

/// One shard's outcome. The report's latency histograms are empty by
/// design (raw-sample recording is disabled fleet-wide); the sketch
/// carries this shard's e2e distribution instead.
struct ShardResult {
  u32 index = 0;
  u64 seed = 0;
  svc::ServiceReport report;
  obs::QuantileSketch e2e_sketch;
  /// Order-sensitive FNV-1a digest over (id, wait, e2e) of every
  /// completed job — the reproducibility fingerprint raw sample
  /// comparison used to provide.
  u64 digest = 0;
  bool flight_triggered = false;
  std::string flight_reason;
};

struct FleetReport {
  u32 shards = 0;
  u64 total_jobs = 0;
  u64 total_completed = 0;
  u64 total_rejected = 0;
  u64 total_failed = 0;
  /// Completed / intended across the whole fleet.
  [[nodiscard]] double availability() const {
    return total_jobs > 0 ? static_cast<double>(total_completed) /
                                static_cast<double>(total_jobs)
                          : 0.0;
  }
  /// Sum of per-shard throughputs (jobs per million simulated cycles) —
  /// shards run concurrently in the fleet fiction, so rates add.
  double throughput_jpmc = 0.0;

  /// End-to-end latency across every shard, folded as shards retire.
  /// Merge-order independent: any permutation of shard folds yields
  /// the identical sketch (tested), so fleet p99/p99.9 are
  /// deterministic at any shard count.
  obs::QuantileSketch e2e_sketch;
  /// Exact merged histogram — populated only with keep_exact_histogram
  /// (guard/validation runs).
  svc::LatencyStats exact_e2e;
  /// Peak raw latency samples retained across shard reports (must stay
  /// 0: everything streams through the sketch).
  u64 peak_retained_samples = 0;

  /// Merged SLO outcome (obs.slo runs only; empty otherwise).
  obs::SloReport slo;
  /// Flight-recorder activity (obs.flight runs only).
  u64 flight_triggers = 0;
  std::vector<std::string> flight_dumps;  ///< files written

  // Host wall time: what the snapshot machinery buys.
  double cold_boot_ms = 0.0;       ///< build + warm up the template
  double fork_ms_per_shard = 0.0;  ///< mean build + restore per shard
  u64 snapshot_bytes = 0;          ///< serialized image size

  /// Shard-0 double-run check result (true when not requested).
  bool reproducible = true;

  std::vector<ShardResult> shard_results;
};

/// Boot the template, snapshot it, fork and serve cfg.shards shards
/// round-robin, aggregate. Shards retire (finish + fold + free) the
/// moment they complete, so peak host memory tracks the widest point
/// of live shards, not the whole fleet's history. Throws ConfigError
/// on a config the service layer rejects and SnapshotError if the
/// image fails validation.
[[nodiscard]] FleetReport run_fleet(const FleetConfig& cfg);

}  // namespace ouessant::fleet
