#include "obs/gauges.hpp"

#include <algorithm>

#include "obs/artifact.hpp"

namespace ouessant::obs {

namespace {

/// Both writers' registration rule: every gauge readable and uniquely
/// named (a repeated name would make two signals or columns ambiguous).
void check_gauges(const Gauges& gauges, const std::string& who) {
  for (auto it = gauges.begin(); it != gauges.end(); ++it) {
    if (!it->read) {
      throw ConfigError(who + ": gauge " + it->name + " has no reader");
    }
    const auto same = [&](const Gauge& g) { return g.name == it->name; };
    if (std::find_if(gauges.begin(), it, same) != it) {
      throw ConfigError(who + ": duplicate gauge name " + it->name);
    }
  }
}

/// Printable VCD identifiers from '!' (33) to '~' (126).
std::string vcd_id(std::size_t index) {
  std::string id;
  do {
    id.push_back(static_cast<char>('!' + index % 94));
    index /= 94;
  } while (index != 0);
  return id;
}

/// `"a", "b"`: the JSON array body of @p gauges' @p field.
std::string string_list(const Gauges& gauges, std::string Gauge::*field) {
  std::string out;
  for (const Gauge& g : gauges) {
    if (!out.empty()) out += ", ";
    out += '"' + json_escape(g.*field) + '"';
  }
  return out;
}

}  // namespace

// ------------------------------------------------------------------- VCD

VcdTrace::VcdTrace(sim::Kernel& kernel, const std::string& path,
                   Gauges gauges, const std::string& top)
    : kernel_(kernel), gauges_(std::move(gauges)), last_(gauges_.size()) {
  check_gauges(gauges_, "VcdTrace");
  for (const Gauge& g : gauges_) {
    if (g.width < 1 || g.width > 64) {
      throw ConfigError("VcdTrace: gauge " + g.name + " has width " +
                        std::to_string(g.width) + ", outside 1..64");
    }
  }
  out_.open(path);
  if (!out_) {
    throw ConfigError("VcdTrace: cannot open " + path);
  }
  out_ << "$date simulated $end\n";
  out_ << "$version ouessant-sim $end\n";
  out_ << "$timescale 20ns $end\n";  // 50 MHz system clock
  out_ << "$scope module " << top << " $end\n";
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    ids_.push_back(vcd_id(i));
    out_ << "$var wire " << gauges_[i].width << ' ' << ids_[i] << ' '
         << gauges_[i].name << " $end\n";
  }
  out_ << "$upscope $end\n$enddefinitions $end\n";
  sampler_id_ = kernel_.add_sampler([this](Cycle c) { sample(c); });
}

VcdTrace::~VcdTrace() {
  kernel_.remove_sampler(sampler_id_);
  close();
}

void VcdTrace::close() {
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
}

void VcdTrace::sample(Cycle cycle) {
  if (!out_.is_open()) return;
  bool stamped = false;
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    const u64 v = gauges_[i].read();
    if (dumped_ && v == last_[i]) continue;
    if (!stamped) {
      out_ << '#' << cycle << '\n';
      stamped = true;
    }
    const unsigned width = gauges_[i].width;
    if (width == 1) {
      out_ << (v & 1) << ids_[i] << '\n';
    } else {
      out_ << 'b';
      for (int b = static_cast<int>(width) - 1; b >= 0; --b) {
        out_ << ((v >> b) & 1);
      }
      out_ << ' ' << ids_[i] << '\n';
    }
    last_[i] = v;
  }
  dumped_ = true;
}

// --------------------------------------------------------------- metrics

MetricsSampler::MetricsSampler(sim::Kernel& kernel, u64 period,
                               Gauges gauges)
    : kernel_(kernel), period_(period), gauges_(std::move(gauges)) {
  if (period_ == 0) {
    throw ConfigError("MetricsSampler: period must be >= 1");
  }
  check_gauges(gauges_, "MetricsSampler");
  sampler_id_ = kernel_.add_sampler([this](Cycle c) { sample(c); });
}

MetricsSampler::~MetricsSampler() { kernel_.remove_sampler(sampler_id_); }

void MetricsSampler::sample(Cycle cycle) {
  if (cycle % period_ != 0) return;
  Sample s;
  s.cycle = cycle;
  s.values.reserve(gauges_.size());
  for (const Gauge& g : gauges_) s.values.push_back(g.read());
  samples_.push_back(std::move(s));
}

std::string MetricsSampler::to_json() const {
  std::string out;
  out.reserve(128 + samples_.size() * 32);
  out += "{\n\"schema\": \"ouessant.metrics.v1\",\n\"period\": ";
  out += std::to_string(period_);
  // Units and descriptions are arrays parallel to columns (not objects),
  // so a consumer can zip the three and the rows stay compact arrays.
  out += ",\n\"columns\": [" + string_list(gauges_, &Gauge::name);
  out += "],\n\"units\": [" + string_list(gauges_, &Gauge::unit);
  out += "],\n\"descriptions\": [" + string_list(gauges_, &Gauge::desc);
  out += "],\n\"samples\": [\n";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) out += ",\n";
    out += "[";
    out += std::to_string(samples_[i].cycle);
    for (const u64 v : samples_[i].values) {
      out += ", ";
      out += std::to_string(v);
    }
    out += "]";
  }
  out += "\n]\n}\n";
  return out;
}

void MetricsSampler::write_json(const std::string& path) const {
  std::ofstream out = open_artifact(path, "MetricsSampler");
  out << to_json();
}

// ----------------------------------------------------------------- parser

namespace {

std::vector<std::string> string_array(JsonCursor& cur) {
  std::vector<std::string> out;
  cur.array([&] { out.push_back(cur.string()); });
  return out;
}

}  // namespace

MetricsSampler::File read_metrics(const std::string& path) {
  const std::string text = read_artifact(path, "read_metrics");
  JsonCursor cur(text, "read_metrics(" + path + ")");
  MetricsSampler::File file;
  bool saw_schema = false;
  cur.object([&](const std::string& key) {
    if (key == "schema") {
      const std::string schema = cur.string();
      if (schema != "ouessant.metrics.v1") {
        cur.fail("unsupported schema \"" + schema + "\"");
      }
      saw_schema = true;
    } else if (key == "period") {
      file.period = cur.uint();
    } else if (key == "columns") {
      file.columns = string_array(cur);
    } else if (key == "units") {
      file.units = string_array(cur);
    } else if (key == "descriptions") {
      file.descriptions = string_array(cur);
    } else if (key == "samples") {
      cur.array([&] {
        MetricsSampler::Sample& s = file.samples.emplace_back();
        cur.expect('[');
        s.cycle = cur.uint();
        while (cur.consume(',')) s.values.push_back(cur.uint());
        cur.expect(']');
      });
    } else {
      cur.fail("unknown field \"" + key + "\"");
    }
  });
  cur.finish();
  if (!saw_schema) {
    cur.fail("missing \"schema\" field (not an ouessant.metrics.v1 file?)");
  }
  if (file.units.size() != file.columns.size() ||
      file.descriptions.size() != file.columns.size()) {
    throw SimError("read_metrics(" + path +
                   "): units/descriptions arrays do not match columns");
  }
  for (const MetricsSampler::Sample& s : file.samples) {
    if (s.values.size() != file.columns.size()) {
      throw SimError("read_metrics(" + path + "): row at cycle " +
                     std::to_string(s.cycle) +
                     " does not match the column registry");
    }
  }
  return file;
}

}  // namespace ouessant::obs
