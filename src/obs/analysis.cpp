#include "obs/analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

#include "obs/artifact.hpp"

namespace ouessant::obs {

namespace {

u64 arg_u64(const ParsedEvent& ev, const char* key, u64 fallback = 0) {
  auto it = ev.args.find(key);
  if (it == ev.args.end() || it->second.is_str) return fallback;
  return it->second.u;
}

std::string arg_str(const ParsedEvent& ev, const char* key) {
  auto it = ev.args.find(key);
  if (it == ev.args.end() || !it->second.is_str) return {};
  return it->second.s;
}

}  // namespace

std::vector<PhaseStat> phase_breakdown(const ParsedTrace& t) {
  std::map<std::pair<u32, std::string>, PhaseStat> acc;
  for (const ParsedEvent& ev : t.events) {
    if (ev.ph != 'X') continue;
    PhaseStat& st = acc[{ev.tid, ev.name}];
    if (st.count == 0) {
      st.track = t.track_name(ev.tid);
      st.name = ev.name;
    }
    ++st.count;
    st.total_dur += ev.dur;
    st.max_dur = std::max(st.max_dur, ev.dur);
  }
  std::vector<PhaseStat> out;
  out.reserve(acc.size());
  for (auto& [key, st] : acc) out.push_back(std::move(st));
  std::stable_sort(out.begin(), out.end(),
                   [](const PhaseStat& a, const PhaseStat& b) {
                     return a.total_dur > b.total_dur;
                   });
  return out;
}

std::vector<JobPath> job_critical_paths(const ParsedTrace& t) {
  std::vector<JobPath> out;
  for (const ParsedEvent& ev : t.events) {
    if (ev.ph != 'X' || t.track_name(ev.tid) != "svc.jobs") continue;
    JobPath j;
    j.id = arg_u64(ev, "id");
    j.kind = ev.name;
    j.worker = arg_str(ev, "worker");
    j.arrival = ev.ts;
    j.wait = arg_u64(ev, "wait");
    j.service = arg_u64(ev, "service");
    j.end_to_end = ev.dur;
    out.push_back(std::move(j));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const JobPath& a, const JobPath& b) {
                     return a.end_to_end > b.end_to_end;
                   });
  return out;
}

std::vector<PcStat> hottest_pcs(const ParsedTrace& t) {
  std::map<std::pair<u32, u64>, PcStat> acc;
  for (const ParsedEvent& ev : t.events) {
    if (ev.ph != 'X') continue;
    auto it = ev.args.find("pc");
    if (it == ev.args.end() || it->second.is_str) continue;
    const u64 pc = it->second.u;
    PcStat& st = acc[{ev.tid, pc}];
    if (st.count == 0) {
      st.track = t.track_name(ev.tid);
      st.pc = pc;
      st.mnemonic = ev.name;
    }
    ++st.count;
    st.total_dur += ev.dur;
  }
  std::vector<PcStat> out;
  out.reserve(acc.size());
  for (auto& [key, st] : acc) out.push_back(std::move(st));
  std::stable_sort(out.begin(), out.end(),
                   [](const PcStat& a, const PcStat& b) {
                     return a.total_dur > b.total_dur;
                   });
  return out;
}

std::string render_report(const ParsedTrace& t, std::size_t top_n) {
  std::string out;
  char line[256];

  out += "== per-phase breakdown (span totals) ==\n";
  std::snprintf(line, sizeof line, "%-28s %-16s %8s %12s %10s\n", "track",
                "span", "count", "cycles", "max");
  out += line;
  for (const PhaseStat& st : phase_breakdown(t)) {
    std::snprintf(line, sizeof line, "%-28s %-16s %8llu %12llu %10llu\n",
                  st.track.c_str(), st.name.c_str(),
                  static_cast<unsigned long long>(st.count),
                  static_cast<unsigned long long>(st.total_dur),
                  static_cast<unsigned long long>(st.max_dur));
    out += line;
  }

  const std::vector<JobPath> jobs = job_critical_paths(t);
  if (!jobs.empty()) {
    out += "\n== per-job critical paths (worst end-to-end first) ==\n";
    std::snprintf(line, sizeof line, "%6s %-8s %-10s %10s %10s %10s %10s\n",
                  "job", "kind", "worker", "arrival", "wait", "service",
                  "e2e");
    out += line;
    for (std::size_t i = 0; i < jobs.size() && i < top_n; ++i) {
      const JobPath& j = jobs[i];
      std::snprintf(line, sizeof line,
                    "%6llu %-8s %-10s %10llu %10llu %10llu %10llu\n",
                    static_cast<unsigned long long>(j.id), j.kind.c_str(),
                    j.worker.c_str(),
                    static_cast<unsigned long long>(j.arrival),
                    static_cast<unsigned long long>(j.wait),
                    static_cast<unsigned long long>(j.service),
                    static_cast<unsigned long long>(j.end_to_end));
      out += line;
    }
  }

  const std::vector<PcStat> pcs = hottest_pcs(t);
  if (!pcs.empty()) {
    out += "\n== hottest microcode PCs ==\n";
    std::snprintf(line, sizeof line, "%-28s %6s %-8s %8s %12s\n", "track",
                  "pc", "op", "count", "cycles");
    out += line;
    for (std::size_t i = 0; i < pcs.size() && i < top_n; ++i) {
      const PcStat& st = pcs[i];
      std::snprintf(line, sizeof line, "%-28s %6llu %-8s %8llu %12llu\n",
                    st.track.c_str(),
                    static_cast<unsigned long long>(st.pc),
                    st.mnemonic.c_str(),
                    static_cast<unsigned long long>(st.count),
                    static_cast<unsigned long long>(st.total_dur));
      out += line;
    }
  }
  return out;
}

std::string render_json(const ParsedTrace& t, std::size_t top_n) {
  std::string out;
  out += "{\n\"schema\": \"ouessant.analysis.v1\",\n";
  out += "\"phases\": [";
  const std::vector<PhaseStat> phases = phase_breakdown(t);
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseStat& st = phases[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"track\": \"" + json_escape(st.track) + "\", \"span\": \"" +
           json_escape(st.name) +
           "\", \"count\": " + std::to_string(st.count) +
           ", \"total_cycles\": " + std::to_string(st.total_dur) +
           ", \"max_cycles\": " + std::to_string(st.max_dur) + "}";
  }
  out += "\n],\n\"critical_paths\": [";
  const std::vector<JobPath> jobs = job_critical_paths(t);
  for (std::size_t i = 0; i < jobs.size() && i < top_n; ++i) {
    const JobPath& j = jobs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"job\": " + std::to_string(j.id) + ", \"kind\": \"" +
           json_escape(j.kind) +
           "\", \"worker\": \"" + json_escape(j.worker) +
           "\", \"arrival\": " + std::to_string(j.arrival) +
           ", \"wait\": " + std::to_string(j.wait) +
           ", \"service\": " + std::to_string(j.service) +
           ", \"e2e\": " + std::to_string(j.end_to_end) + "}";
  }
  out += "\n],\n\"hottest_pcs\": [";
  const std::vector<PcStat> pcs = hottest_pcs(t);
  for (std::size_t i = 0; i < pcs.size() && i < top_n; ++i) {
    const PcStat& st = pcs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"track\": \"" + json_escape(st.track) +
           "\", \"pc\": " + std::to_string(st.pc) + ", \"op\": \"" +
           json_escape(st.mnemonic) +
           "\", \"count\": " + std::to_string(st.count) +
           ", \"total_cycles\": " + std::to_string(st.total_dur) + "}";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace ouessant::obs
