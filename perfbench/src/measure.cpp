#include "measure.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double nearest_rank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

void Digest::add(u64 v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(std::string_view s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
  add(u64{s.size()});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  u64 size_pages = 0;
  u64 resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

SpeedProbe::SpeedProbe()
    : arena_(new std::byte[kArenaBytes]),
      upstream_(arena_.get(), kArenaBytes, std::pmr::null_memory_resource()),
      pool_(&upstream_),
      map_(&pool_) {}

u64 SpeedProbe::pass() {
  // At most 4096 live nodes of a few dozen bytes each; the pool's chunks
  // stay well inside kArenaBytes.
  constexpr int kOps = 10000;
  u64 x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const u64 key = x & 4095;
    if (x & 0x10000) {
      map_[key] += x;
    } else {
      map_.erase(key);
    }
  }
  return map_.size();
}

double SpeedProbe::measure_ms() {
  volatile u64 sink = pass();
  const auto t0 = Clock::now();
  sink = sink + pass();
  return 1e3 * seconds_since(t0);
}

SpanTracer::SpanTracer(std::size_t keep_spans)
    : keep_(keep_spans), origin_(Clock::now()) {}

SpanTracer::Scope::Scope(SpanTracer* t, std::string_view name, u64 id)
    : t_(t) {
  if (t_ != nullptr) t_->open(name, id);
}

SpanTracer::Scope::~Scope() {
  if (t_ != nullptr) t_->close();
}

void SpanTracer::open(std::string_view name, u64 id) {
  const u64 parent = stack_.empty() ? 0 : stack_.back().seq;
  stack_.push_back(
      Open{next_seq_++, parent, id, std::string(name), Clock::now()});
}

void SpanTracer::close() {
  const Clock::time_point end = Clock::now();
  Open o = std::move(stack_.back());
  stack_.pop_back();
  const double dur_ms =
      std::chrono::duration<double, std::milli>(end - o.start).count();
  if (!stack_.empty()) stack_.back().child_ms += dur_ms;
  const std::string layer = o.name.substr(0, o.name.find('.'));
  LayerTime& lt = layers_[layer];
  lt.self_ms += dur_ms - o.child_ms;
  ++lt.spans;
  ++closed_;
  if (kept_.size() < keep_) {
    const double ts_us =
        std::chrono::duration<double, std::micro>(o.start - origin_).count();
    kept_.push_back(
        Kept{o.seq, o.parent, o.id, std::move(o.name), ts_us, dur_ms * 1e3});
  }
}

std::string SpanTracer::chrome_json(const std::string& meta_json) const {
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ns\",\n \"otherData\": " << meta_json
     << ",\n \"traceEvents\": [\n";
  os << "  {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
        "\"args\": {\"name\": \"perfbench\"}}";
  char buf[64];
  for (const Kept& k : kept_) {
    const std::string layer = k.name.substr(0, k.name.find('.'));
    os << ",\n  {\"name\": " << json_str(k.name) << ", \"cat\": "
       << json_str(layer) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1";
    std::snprintf(buf, sizeof buf, "%.3f", k.ts_us);
    os << ", \"ts\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", k.dur_us);
    os << ", \"dur\": " << buf << ", \"args\": {\"id\": " << k.id
       << ", \"span\": " << k.seq << ", \"parent\": " << k.parent << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string SpanTracer::layer_table() const {
  double total = 0.0;
  for (const auto& [name, lt] : layers_) total += lt.self_ms;
  std::ostringstream os;
  char line[128];
  std::snprintf(line, sizeof line, "%-10s %12s %8s %10s\n", "layer",
                "self_ms", "share", "spans");
  os << line;
  for (const auto& [name, lt] : layers_) {
    std::snprintf(line, sizeof line, "%-10s %12.3f %7.1f%% %10llu\n",
                  name.c_str(), lt.self_ms,
                  total > 0 ? 100.0 * lt.self_ms / total : 0.0,
                  static_cast<unsigned long long>(lt.spans));
    os << line;
  }
  return os.str();
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof esc, "\\u%04x", c);
          out += esc;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";  // the schema check rejects it
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
