// ouessant_bench — the single driver for every paper experiment.
//
// Replaces the fourteen per-experiment bench binaries: each experiment is
// now a registered scenario (see scenarios.hpp) and this driver expands,
// filters, runs and reports them.
//
//   ouessant_bench --list               show scenarios and grid sizes
//   ouessant_bench                      run everything, print tables
//   ouessant_bench --filter e4,e5      substring filter (name/E-id/title)
//   ouessant_bench --jobs 8             parallel sweep, deterministic output
//   ouessant_bench --json out.json      persist results (ouessant.sweep.v1)
//   ouessant_bench --compare-jobs 4     run twice (jobs=1, jobs=4), check
//                                       payload bit-identity, record both
//                                       wall clocks + speedup in the JSON
//   ouessant_bench --seed 42            override the built-in seed of every
//                                       seeded scenario
//   ouessant_bench --trace STEM         write STEM_<scenario>_<point>.vcd
//                                       for every seeded scenario run
//   ouessant_bench --trace-events STEM  write Chrome trace-event JSON
//                                       (STEM_<scenario>_<point>.trace.json
//                                       + .metrics.json time-series) for
//                                       every traced serve run, and the
//                                       fleet runs' SLO report + flight
//                                       dumps under the same stem; view
//                                       with ouessant_trace or Perfetto
//   ouessant_bench --faults SPEC        override the fault plan of every
//                                       fault-aware (serve_faulty)
//                                       scenario (grammar: docs/robustness.md)
//   ouessant_bench --snapshot STEM      write STEM_<scenario>_<point>.snap
//                                       (final service state) for every
//                                       snapshot-aware (serve_*) run
//   ouessant_bench --restore FILE       warm-boot every snapshot-aware run
//                                       from FILE instead of cold-booting;
//                                       use --filter to select the
//                                       configuration FILE was saved from
//   ouessant_bench --chain MODE         force every chain-aware (chain_*,
//                                       serve_jpeg) run to MODE ("linked"
//                                       or "store_forward") instead of its
//                                       built-in grid (docs/chaining.md)
//   ouessant_bench --help               print this usage on stdout
//
// Exit status is non-zero when any scenario run fails an invariant or the
// --compare-jobs identity check trips.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "exp/param.hpp"
#include "exp/sweep.hpp"
#include "scenarios.hpp"

namespace {

using namespace ouessant;

struct Options {
  bool list = false;
  bool help = false;
  int compare_jobs = 0;  // 0 = off
  std::string json_path;
  exp::SweepOptions sweep;  ///< --filter, --jobs and the per-run flags
};

/// The one flag list, printed to stdout for --help (exit 0) and stderr
/// on a parse error (exit 2). scripts/check_docs.sh scrapes the --help
/// output to prove EXPERIMENTS.md documents every flag — keep the two
/// in sync.
void usage(const char* argv0, std::FILE* to) {
  std::fprintf(to,
               "usage: %s [--help] [--list] [--filter SUBSTR[,SUBSTR...]]\n"
               "          [--jobs N] [--json PATH] [--compare-jobs N]\n"
               "          [--seed U64] [--trace STEM] [--trace-events STEM]\n"
               "          [--faults SPEC] [--snapshot STEM] [--restore FILE]\n"
               "          [--chain linked|store_forward]\n",
               argv0);
}

bool parse_int(const char* s, int* out) {
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 1024) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_u64(const char* s, ouessant::u64* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 0);
  if (end == s || *end != '\0' || errno != 0) return false;
  *out = static_cast<ouessant::u64>(v);
  return true;
}

bool parse_args(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--list") {
      opt->list = true;
    } else if (arg == "--help" || arg == "-h") {
      opt->help = true;
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->sweep.faults = v;
    } else if (arg == "--filter") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->sweep.filter = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (v == nullptr || !parse_int(v, &opt->sweep.jobs)) return false;
    } else if (arg == "--compare-jobs") {
      const char* v = next();
      if (v == nullptr || !parse_int(v, &opt->compare_jobs)) return false;
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->json_path = v;
    } else if (arg == "--seed") {
      const char* v = next();
      ouessant::u64 seed = 0;
      if (v == nullptr || !parse_u64(v, &seed)) return false;
      opt->sweep.seed = seed;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->sweep.trace_stem = v;
    } else if (arg == "--trace-events") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->sweep.trace_events_stem = v;
    } else if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->sweep.snapshot_stem = v;
    } else if (arg == "--restore") {
      const char* v = next();
      if (v == nullptr) return false;
      opt->sweep.restore_path = v;
    } else if (arg == "--chain") {
      const char* v = next();
      if (v == nullptr ||
          (std::string(v) != "linked" && std::string(v) != "store_forward")) {
        return false;
      }
      opt->sweep.chain = v;
    } else {
      usage(argv[0], stderr);
      return false;
    }
  }
  return true;
}

void list_scenarios(const exp::Registry& registry,
                    const std::string& filter) {
  std::printf("%-16s %-6s %7s  %s\n", "scenario", "exp", "points", "title");
  for (const auto& spec : registry.scenarios()) {
    if (!exp::matches_filter(spec, filter)) continue;
    std::printf("%-16s %-6s %7zu  %s\n", spec.name.c_str(),
                spec.experiment.c_str(), spec.point_count(),
                spec.title.c_str());
  }
}

void print_tables(const exp::Registry& registry,
                  const std::vector<exp::Result>& results) {
  for (const auto& spec : registry.scenarios()) {
    std::vector<exp::Result> rows;
    for (const auto& r : results) {
      if (r.scenario == spec.name) rows.push_back(r);
    }
    if (rows.empty()) continue;
    std::printf("== %s [%s] %s ==\n", spec.name.c_str(),
                spec.experiment.c_str(), spec.title.c_str());
    std::fputs(exp::render_table(rows).c_str(), stdout);
    std::printf("\n");
  }
}

std::string fmt_seconds(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string fmt_ratio(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

/// True when at least one registered scenario passes @p filter. A filter
/// that matches nothing is a user error (typo, stale name): running an
/// empty sweep and exiting 0 would let a CI guard silently guard nothing.
bool any_scenario_matches(const exp::Registry& registry,
                          const std::string& filter) {
  for (const auto& spec : registry.scenarios()) {
    if (exp::matches_filter(spec, filter)) return true;
  }
  return false;
}

/// Payload identity between two equally-expanded sweeps, skipping
/// scenarios whose metrics read the host clock.
bool payloads_identical(const std::vector<exp::SweepJob>& jobs,
                        const std::vector<exp::Result>& a,
                        const std::vector<exp::Result>& b) {
  if (a.size() != jobs.size() || b.size() != jobs.size()) return false;
  bool identical = true;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].spec->deterministic) continue;
    if (!same_payload(a[i], b[i])) {
      std::fprintf(stderr,
                   "compare-jobs: payload mismatch at job %zu (%s %s)\n", i,
                   a[i].scenario.c_str(), a[i].params.str().c_str());
      identical = false;
    }
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, &opt)) return 2;
  if (opt.help) {
    usage(argv[0], stdout);
    return 0;
  }

  exp::Registry registry;
  scenarios::register_all_scenarios(registry);

  const std::string& filter = opt.sweep.filter;
  if (opt.list) {
    list_scenarios(registry, filter);
    return 0;
  }

  if (!filter.empty() && !any_scenario_matches(registry, filter)) {
    std::fprintf(stderr,
                 "ouessant_bench: no scenarios matched --filter \"%s\"\n"
                 "available scenarios:\n",
                 filter.c_str());
    for (const auto& spec : registry.scenarios()) {
      std::fprintf(stderr, "  %s\n", spec.name.c_str());
    }
    return 2;
  }

  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::vector<std::string> meta;
  meta.push_back("\"host_cpus\": " + std::to_string(host_cpus));
  // All free-form strings go through exp::json_escape — a filter (or any
  // future meta value) containing a quote or backslash must not corrupt
  // the document.
  meta.push_back("\"filter\": \"" + exp::json_escape(filter) + "\"");
  if (opt.sweep.seed) {
    meta.push_back("\"seed\": " + std::to_string(*opt.sweep.seed));
  }

  try {
    if (opt.compare_jobs > 0) {
      const auto jobs = exp::expand_jobs(registry, filter);
      exp::SweepOptions sweep = opt.sweep;
      sweep.jobs = 1;
      const auto serial = exp::run_sweep(registry, sweep);
      sweep.jobs = opt.compare_jobs;
      const auto parallel = exp::run_sweep(registry, sweep);
      const bool identical =
          payloads_identical(jobs, serial.results, parallel.results);
      const double speedup = serial.wall_seconds / parallel.wall_seconds;

      print_tables(registry, serial.results);
      std::printf("sweep: %zu runs | jobs=1 %.3fs | jobs=%d %.3fs | "
                  "speedup %.2fx (host has %u CPUs) | payloads %s\n",
                  serial.results.size(), serial.wall_seconds,
                  opt.compare_jobs, parallel.wall_seconds, speedup,
                  host_cpus, identical ? "identical" : "MISMATCH");

      meta.push_back("\"jobs\": " + std::to_string(opt.compare_jobs));
      meta.push_back("\"wall_seconds_jobs1\": " +
                     fmt_seconds(serial.wall_seconds));
      meta.push_back("\"wall_seconds_jobsN\": " +
                     fmt_seconds(parallel.wall_seconds));
      meta.push_back("\"speedup\": " + fmt_ratio(speedup));
      meta.push_back(std::string("\"payloads_identical\": ") +
                     (identical ? "true" : "false"));
      if (!opt.json_path.empty()) {
        exp::write_json(opt.json_path, serial.results, meta);
      }
      if (!identical || !serial.all_ok() || !parallel.all_ok()) return 1;
      return 0;
    }

    const auto outcome = exp::run_sweep(registry, opt.sweep);
    print_tables(registry, outcome.results);
    std::printf("sweep: %zu runs | jobs=%d | %.3fs | %zu failed\n",
                outcome.results.size(), outcome.jobs, outcome.wall_seconds,
                outcome.failed);
    for (const auto& r : outcome.results) {
      if (!r.ok) {
        std::fprintf(stderr, "FAIL %s %s: %s\n", r.scenario.c_str(),
                     r.params.str().c_str(), r.error.c_str());
      }
    }

    meta.push_back("\"jobs\": " + std::to_string(outcome.jobs));
    meta.push_back("\"wall_seconds\": " + fmt_seconds(outcome.wall_seconds));
    if (!opt.json_path.empty()) {
      exp::write_json(opt.json_path, outcome.results, meta);
    }
    return outcome.all_ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ouessant_bench: %s\n", e.what());
    return 2;
  }
}
