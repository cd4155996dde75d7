// perfbench: the simulator's host-speed benchmark driver.
//
//   perfbench --workload ocp_stream|serve_mix|fleet_fork --seed N
//             --seconds S --trace 0|1 --golden FILE
//             [--trace-dir DIR] [--rev TEXT] [--size full|smoke]
//   perfbench --workload W --golden FILE --print-fingerprint
//
// Every run first replays the workload's pinned check round (fixed seed,
// smoke size) and compares its simulated fingerprint with FILE. It then
// runs rounds with seeds derived from --seed until --seconds have
// passed, each between two readings of the host-speed probe that scale
// its host times. --trace 0 reports the end-to-end metrics from
// untraced rounds.
// --trace 1 runs each round twice, untraced and traced with the same
// seed, requires identical fingerprints, reports the per-layer metrics
// from the traced rounds, and writes a Chrome trace plus a per-layer
// self-time table under DIR. The last line of stdout is the result
// object; the line before it carries host metadata. The exit code is 0
// only when every check passed.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string golden;
  std::string trace_dir = ".";
  std::string rev = "unknown";
  Size size = Size::kFull;
  bool print_fingerprint = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload W --seed N --seconds S --trace 0|1"
               " --golden FILE [--trace-dir DIR] [--rev TEXT]"
               " [--size full|smoke] [--print-fingerprint]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-fingerprint") {
      a.print_fingerprint = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--golden") {
        a.golden = v;
      } else if (k == "--trace-dir") {
        a.trace_dir = v;
      } else if (k == "--rev") {
        a.rev = v;
      } else if (k == "--size") {
        if (v != "full" && v != "smoke") usage("--size takes full or smoke");
        a.size = v == "smoke" ? Size::kSmoke : Size::kFull;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!known_workload(a.workload)) usage("unknown workload '" + a.workload + "'");
  if (a.golden.empty() && !a.print_fingerprint) usage("--golden is required");
  if (!a.print_fingerprint && (!have_seed || a.seconds <= 0.0)) {
    usage("--seed and a positive --seconds are required");
  }
  return a;
}

/// The pinned fingerprint of @p workload from the golden file
/// ("<workload> <fingerprint>" lines, '#' comments).
std::string golden_for(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) usage("cannot read golden file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(workload + " ", 0) == 0) {
      return line.substr(workload.size() + 1);
    }
  }
  usage("golden file " + path + " has no entry for " + workload);
}

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof set, &set);  // best effort
}

/// Every round of one run.
struct Rounds {
  std::vector<Round> plain;
  std::vector<Round> traced;  ///< same seeds as plain, --trace 1 only
  std::vector<double> probe_ms;  ///< each round's mean probe reading
  /// Each plain round's median operation time. At any moment some of a
  /// shared host's vCPUs run the simulator about a quarter slower than
  /// the others, even after probe scaling, and rounds rotate over all of
  /// them. A median over a whole run's samples jumps between the two
  /// speeds as the slow share crosses one half; the mean of per-round
  /// medians moves with it in proportion.
  std::vector<double> op_p50;
  std::size_t op_per_round = 0;  ///< operation-time samples per round
  u64 ops = 0;
  u64 failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  /// Record the median of @p op_us, one round's samples.
  void add_op_times(const std::vector<double>& op_us) {
    op_per_round = op_us.size();
    op_p50.push_back(median(op_us));
  }
  void count(const Round& r, const std::string& prefix) {
    ops += r.ops;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      if (errors.size() < 8) errors.push_back(prefix + e);
    }
  }
};

/// Keep at most 256 evenly spaced order statistics of @p v, so that the
/// run's resident memory does not grow with the number of calls a round
/// makes.
void thin(std::vector<double>& v) {
  constexpr std::size_t kKeep = 256;
  if (v.size() <= kKeep) return;
  std::sort(v.begin(), v.end());
  std::vector<double> kept(kKeep);
  for (std::size_t i = 0; i < kKeep; ++i) {
    kept[i] = v[(2 * i + 1) * v.size() / (2 * kKeep)];
  }
  v = std::move(kept);
}

template <typename T>
std::vector<double> pooled(const std::vector<const Round*>& rounds,
                           T Round::*member) {
  std::vector<double> out;
  for (const Round* r : rounds) {
    if constexpr (std::is_same_v<T, double>) {
      out.push_back(r->*member);
    } else {
      out.insert(out.end(), (r->*member).begin(), (r->*member).end());
    }
  }
  return out;
}

std::vector<const Round*> all(const std::vector<Round>& rounds) {
  std::vector<const Round*> out;
  for (const Round& r : rounds) out.push_back(&r);
  return out;
}

/// Simulated cycles per scaled host second over the timed phases of
/// @p rounds.
double sim_cps(const std::vector<const Round*>& rounds) {
  double cycles = 0.0, seconds = 0.0;
  for (const Round* r : rounds) {
    cycles += static_cast<double>(r->cycles);
    seconds += r->timed_s;
  }
  return seconds > 0.0 ? cycles / seconds : 0.0;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> end_to_end(const Rounds& t) {
  const auto every = all(t.plain);
  return {
      {"sim_cps", sim_cps(every), "1/s"},
      {"op_us_p50", mean(t.op_p50), "us"},
      {"setup_s", median(pooled(every, &Round::setup_s)), "s"},
      {"fork_ms", median(pooled(every, &Round::fork_ms)), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Rounds& t, const SpanTracer& tracer) {
  std::map<std::string, u64> counts;
  for (const Round& r : t.traced) {
    for (const auto& [k, v] : r.counts) counts[k] += v;
  }
  const auto rounds = static_cast<double>(t.traced.size());
  auto total = [&](const char* key) {
    auto it = counts.find(key);
    return it == counts.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto per_round = [&](const char* key) { return total(key) / rounds; };

  double serve_ns = 0.0, serve_ticks = 0.0, serve_beats = 0.0;
  for (const Round& r : t.traced) {
    serve_ns += 1e6 * r.serve_ms;
    serve_ticks += static_cast<double>(r.counts.at("serve.ticks"));
    serve_beats += static_cast<double>(r.counts.at("serve.beats"));
  }
  const auto every = all(t.traced);
  auto median_of = [&](auto Round::*m) { return median(pooled(every, m)); };
  const std::vector<double> calls = pooled(every, &Round::call_us);
  std::vector<double> wait_p99;
  std::size_t call_count = 0;
  for (const Round& r : t.traced) {
    wait_p99.push_back(static_cast<double>(r.wait_p99_cycles));
    call_count += r.call_us.size();
  }
  return {
      {"sim.ticks", per_round("sim.ticks"), "count"},
      {"sim.wakeups", per_round("sim.wakeups"), "count"},
      {"sim.ff_frac", ratio(total("sim.ff_cycles"), total("sim.cycles")),
       "ratio"},
      {"sim.ns_per_tick", ratio(serve_ns, serve_ticks), "ns"},
      {"fifo.words", per_round("fifo.words"), "count"},
      {"fifo.link_words", per_round("fifo.link_words"), "count"},
      {"fifo.link_busy_cycles", per_round("fifo.link_busy_cycles"), "cycles"},
      {"ouessant.instructions", per_round("ouessant.instructions"), "count"},
      {"ouessant.decode_hit_ratio",
       ratio(total("ouessant.decode_hits"),
             total("ouessant.decode_hits") + total("ouessant.decode_misses")),
       "ratio"},
      {"ouessant.exec_wait_cycles", per_round("ouessant.exec_wait_cycles"),
       "cycles"},
      {"bus.beats", per_round("bus.beats"), "count"},
      {"bus.transactions", per_round("bus.transactions"), "count"},
      {"bus.batched_chunks", per_round("bus.batched_chunks"), "count"},
      {"bus.wait_cycles", per_round("bus.wait_cycles"), "cycles"},
      {"bus.ns_per_beat", ratio(serve_ns, serve_beats), "ns"},
      {"dpr.swaps", per_round("dpr.swaps"), "count"},
      {"dpr.preemptions", per_round("dpr.preemptions"), "count"},
      {"dpr.icap_busy_cycles", per_round("dpr.icap_busy_cycles"), "cycles"},
      {"dpr.icap_wait_cycles", per_round("dpr.icap_wait_cycles"), "cycles"},
      {"dpr.cache_hit_ratio",
       ratio(total("dpr.cache_hits"),
             total("dpr.cache_hits") + total("dpr.cache_misses")),
       "ratio"},
      {"svc.batches", per_round("svc.batches"), "count"},
      {"svc.jobs_per_batch",
       ratio(total("svc.completed"), total("svc.batches")), "ratio"},
      {"svc.wait_p99_cycles", median(wait_p99), "cycles"},
      {"stack.construct_ms", median_of(&Round::construct_ms), "ms"},
      {"drive.calls", static_cast<double>(call_count) / rounds, "count"},
      {"drive.call_us_p50", nearest_rank(calls, 50.0), "us"},
      {"drive.call_us_p99", nearest_rank(calls, 99.0), "us"},
      {"snap.bytes", per_round("snap.bytes"), "bytes"},
      {"snap.save_ms", median_of(&Round::save_ms), "ms"},
      {"snap.restore_ms", median_of(&Round::restore_ms), "ms"},
      {"mem.rss_per_stack_mb", median_of(&Round::rss_per_stack_mb), "MB"},
      {"phase.boot_ms", median_of(&Round::boot_ms), "ms"},
      {"phase.serve_ms", median_of(&Round::serve_ms), "ms"},
      {"obs.sketch_buckets", per_round("obs.sketch_buckets"), "count"},
      {"obs.slo_alerts", per_round("obs.slo_alerts"), "count"},
      {"trace.overhead_frac",
       ratio(sim_cps(all(t.plain)), sim_cps(every)) - 1.0, "ratio"},
      {"trace.spans", static_cast<double>(tracer.span_count()), "count"},
  };
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + json_str(ms[i].name) +
           ": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string meta_json(const Args& a, const Rounds& t, std::size_t ncpus) {
  std::ostringstream os;
  os << "{\"workload\": " << json_str(a.workload) << ", \"seed\": " << a.seed
     << ", \"seconds\": " << json_num(a.seconds)
     << ", \"trace\": " << (a.trace ? 1 : 0)
     << ", \"rounds\": " << t.plain.size() << ", \"cpus_used\": " << ncpus
     << ", \"op_samples_per_round\": " << t.op_per_round
     << ", \"probe_ms_median\": " << json_num(median(t.probe_ms))
     << ", \"probe_ref_ms\": " << json_num(kProbeRefMs)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_str(std::string("g++ ") + __VERSION__)
     << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
     << ", \"rev\": " << json_str(a.rev) << ", \"errors\": [";
  for (std::size_t i = 0; i < t.errors.size(); ++i) {
    os << (i ? ", " : "") << json_str(t.errors[i]);
  }
  os << "]}";
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Serve every allocation of 1 MiB or more (each stack's SRAM) from its
  // own mapping and return it on free. Otherwise glibc raises its mmap
  // threshold after the first SRAM is freed and recycles heap memory,
  // and whether a later stack finds its pages already resident depends
  // on the allocation history of earlier rounds. Then set-up, warm-boot
  // and peak-memory figures would change with the seed.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const Args a = parse(argc, argv);
  if (a.print_fingerprint) {
    const Round pinned = run_round(a.workload, kPinnedSeed, Size::kSmoke, nullptr);
    for (const std::string& e : pinned.errors) std::cerr << e << "\n";
    std::cout << a.workload << ' ' << fingerprint_text(pinned.fingerprint)
              << "\n";
    return pinned.failed == 0 ? 0 : 1;
  }
  const std::string golden = golden_for(a.golden, a.workload);

  Rounds t;
  {
    const Round pinned = run_round(a.workload, kPinnedSeed, Size::kSmoke, nullptr);
    const std::string got = fingerprint_text(pinned.fingerprint);
    t.count(pinned, "pinned: ");
    // A pinned round that failed a check has already counted it; its
    // fingerprint cannot be expected to match.
    if (pinned.failed == 0 && got != golden) {
      t.fail("pinned fingerprint mismatch: got [" + got + "] want [" + golden +
             "]");
    }
  }

  std::vector<int> cpus = allowed_cpus();
  if (cpus.empty()) cpus.push_back(-1);  // affinity unavailable: never pin
  // Rounds rotate over every CPU the process may use: on a shared host
  // some vCPUs are persistently slower than others, and an unpinned
  // process can sit on one for a whole run. At most 64 Ki spans are
  // kept for the trace file; self times cover all of them.
  SpanTracer tracer(1u << 16);
  SpeedProbe probe;
  // Each round runs between two probe readings on its CPU, and its host
  // times are scaled by their mean. @p before is the reading taken just
  // before the round and becomes the one taken just after it.
  auto probed_round = [&](u64 seed, SpanTracer* tr, double& before) {
    Round r = run_round(a.workload, seed, a.size, tr);
    const double after = probe.measure_ms();
    const double reading = 0.5 * (before + after);
    r.scale_host_times(kProbeRefMs / reading);
    t.probe_ms.push_back(reading);
    before = after;
    return r;
  };
  const auto start = Clock::now();
  for (u64 i = 0; seconds_since(start) < a.seconds || t.plain.size() < 4;
       ++i) {
    const int cpu = cpus[i % cpus.size()];
    if (cpu >= 0) pin_to(cpu);
    const u64 seed = round_seed(a.seed, i);
    double before = probe.measure_ms();
    Round r = probed_round(seed, nullptr, before);
    t.count(r, "");
    t.add_op_times(r.op_us);
    r.op_us = {};
    r.call_us = {};  // per-layer figures come from the traced rounds
    if (a.trace) {
      Round traced = probed_round(seed, &tracer, before);
      t.count(traced, "traced: ");
      if (traced.fingerprint != r.fingerprint) {
        t.fail("round " + std::to_string(i) +
               ": traced fingerprint differs from untraced");
      }
      traced.op_us = {};
      thin(traced.call_us);
      t.traced.push_back(std::move(traced));
    }
    t.plain.push_back(std::move(r));
  }

  const std::vector<Metric> metrics =
      a.trace ? per_layer(t, tracer) : end_to_end(t);
  const std::string meta = meta_json(a, t, cpus.size());
  if (a.trace) {
    const std::string stem = a.trace_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed);
    write_file(stem + ".trace.json", tracer.chrome_json(meta));
    write_file(stem + ".layers.txt", tracer.layer_table());
    std::cerr << "self time per layer (" << a.workload << ", "
              << tracer.span_count() << " spans, " << tracer.kept()
              << " kept in " << stem << ".trace.json):\n"
              << tracer.layer_table();
  }
  std::cout << "{\"meta\": " << meta << "}\n";
  std::cout << "{\"correct\": " << (t.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << t.ops << ", \"failed\": " << t.failed
            << ", \"metrics\": " << metrics_json(metrics) << "}" << std::endl;
  return t.failed == 0 ? 0 : 1;
}
