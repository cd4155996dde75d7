// ouessant_trace — inspect the observability artifacts the stack emits.
//
//   ouessant_trace <trace.json>             per-phase breakdown, top-10
//                                           job critical paths and
//                                           hottest microcode PCs
//   ouessant_trace <trace.json> --top 25    widen the top-N listings
//   ouessant_trace <trace.json> --json      the same report as
//                                           ouessant.analysis.v1 JSON
//   ouessant_trace slo <report.json>        render an ouessant.slo.v1
//                                           SLO burn-rate report
//   ouessant_trace flight <dump.json>       summarize a flight-recorder
//                                           dump (trigger + breakdown);
//                                           --top / --json as above
//   ouessant_trace metrics <metrics.json>   ouessant.metrics.v1 column
//                                           registry with units and
//                                           descriptions
//
// Trace and flight files also load in Perfetto / chrome://tracing for
// the visual timeline; this tool is the terminal-side summary.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/analysis.hpp"
#include "obs/gauges.hpp"
#include "obs/slo.hpp"
#include "obs/trace_reader.hpp"

namespace {

using namespace ouessant;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <trace.json> [--top N] [--json]\n"
               "       %s flight <dump.flight.json> [--top N] [--json]\n"
               "       %s slo <report.slo.json>\n"
               "       %s metrics <metrics.json>\n",
               argv0, argv0, argv0, argv0);
}

int run_slo(const std::string& path) {
  const obs::SloReport rep = obs::read_slo_report(path);
  std::printf("%s: %llu shard monitor%s folded\n", path.c_str(),
              static_cast<unsigned long long>(rep.shards),
              rep.shards == 1 ? "" : "s");
  std::printf(
      "windows: long %llu / short %llu cycles, alert when both burn >= "
      "%.3g\n\n",
      static_cast<unsigned long long>(rep.long_window),
      static_cast<unsigned long long>(rep.short_window), rep.burn_threshold);
  std::printf("%-12s %12s %8s %10s %12s %7s %12s %12s %5s\n", "class",
              "slo_cycles", "target", "jobs", "availability", "alerts",
              "first_alert", "worst_burn", "met");
  for (const obs::SloClassReport& c : rep.classes) {
    std::printf("%-12s %12llu %7.4f%% %10llu %11.4f%% %7llu %12llu %12.3f "
                "%5s\n",
                c.name.c_str(),
                static_cast<unsigned long long>(c.latency_cycles),
                100.0 * c.target, static_cast<unsigned long long>(c.jobs),
                100.0 * c.availability(),
                static_cast<unsigned long long>(c.alerts),
                static_cast<unsigned long long>(c.first_alert), c.worst_burn,
                c.met() ? "yes" : "NO");
  }
  return 0;
}

int run_metrics(const std::string& path) {
  const obs::MetricsSampler::File file = obs::read_metrics(path);
  std::printf("%s: %zu columns, %zu samples every %llu cycles\n\n",
              path.c_str(), file.columns.size(), file.samples.size(),
              static_cast<unsigned long long>(file.period));
  std::printf("%-32s %-10s %s\n", "column", "unit", "description");
  for (std::size_t i = 0; i < file.columns.size(); ++i) {
    std::printf("%-32s %-10s %s\n", file.columns[i].c_str(),
                file.units[i].empty() ? "-" : file.units[i].c_str(),
                file.descriptions[i].c_str());
  }
  return 0;
}

int run_trace(const std::string& path, std::size_t top_n, bool json,
              bool flight) {
  const obs::ParsedTrace trace = obs::read_trace(path);
  if (json) {
    std::fputs(obs::render_json(trace, top_n).c_str(), stdout);
    return 0;
  }
  std::printf("%s: %zu events on %zu tracks\n", path.c_str(),
              trace.events.size(), trace.track_names.size());
  if (flight) {
    // A flight dump is an ordinary trace plus the trigger instant the
    // fault path emitted; surface when and why the ring was frozen.
    bool triggered = false;
    for (const obs::ParsedEvent& e : trace.events) {
      if (e.ph != 'i' || e.name != "flight_trigger") continue;
      const auto it = e.args.find("reason");
      std::printf("flight trigger at cycle %llu: %s\n",
                  static_cast<unsigned long long>(e.ts),
                  it != e.args.end() && it->second.is_str
                      ? it->second.s.c_str()
                      : "(no reason recorded)");
      triggered = true;
    }
    if (!triggered) {
      std::printf("no flight trigger recorded (ring dumped manually)\n");
    }
  }
  std::printf("\n");
  std::fputs(obs::render_report(trace, top_n).c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "trace";
  std::string path;
  std::size_t top_n = 10;
  bool json = false;
  int i = 1;
  if (i < argc) {
    const std::string arg = argv[i];
    if (arg == "slo" || arg == "flight" || arg == "metrics") {
      mode = arg;
      ++i;
    }
  }
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 2;
      }
      char* end = nullptr;
      const long v = std::strtol(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || v < 1) {
        usage(argv[0]);
        return 2;
      }
      top_n = static_cast<std::size_t>(v);
    } else if (arg == "--json") {
      json = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (path.empty() || (json && (mode == "slo" || mode == "metrics"))) {
    usage(argv[0]);
    return 2;
  }

  try {
    if (mode == "slo") return run_slo(path);
    if (mode == "metrics") return run_metrics(path);
    return run_trace(path, top_n, json, mode == "flight");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ouessant_trace: %s\n", e.what());
    return 1;
  }
}
