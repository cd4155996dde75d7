#include "obs/sampler.hpp"

#include "obs/artifact.hpp"

namespace ouessant::obs {

MetricsSampler::MetricsSampler(sim::Kernel& kernel, u64 period)
    : kernel_(kernel), period_(period) {
  if (period_ == 0) {
    throw ConfigError("MetricsSampler: period must be >= 1");
  }
  sampler_id_ = kernel_.add_sampler([this](Cycle c) { sample(c); });
}

MetricsSampler::~MetricsSampler() { kernel_.remove_sampler(sampler_id_); }

void MetricsSampler::reject_if_started(const std::string& name) const {
  if (!samples_.empty()) {
    throw SimError("MetricsSampler: column " + name +
                   " added after sampling started (cycle " +
                   std::to_string(kernel_.now()) +
                   "); earlier rows would be misaligned");
  }
  for (const std::string& c : columns_) {
    if (c == name) {
      throw ConfigError("MetricsSampler: duplicate column " + name);
    }
  }
}

void MetricsSampler::add_gauge(const std::string& name,
                               std::function<u64()> fn,
                               const std::string& unit,
                               const std::string& desc) {
  reject_if_started(name);
  // Gauges form the column head; keep stat keys behind them so the
  // documented column order (gauges, then stats) holds regardless of
  // registration interleaving. units_/descs_ mirror columns_.
  const auto at = static_cast<std::ptrdiff_t>(gauges_.size());
  columns_.insert(columns_.begin() + at, name);
  units_.insert(units_.begin() + at, unit);
  descs_.insert(descs_.begin() + at, desc);
  gauges_.push_back(std::move(fn));
}

void MetricsSampler::add_stat(const std::string& key,
                              const std::string& unit,
                              const std::string& desc) {
  reject_if_started(key);
  columns_.push_back(key);
  units_.push_back(unit);
  descs_.push_back(desc);
  stat_keys_.push_back(key);
}

void MetricsSampler::sample(Cycle cycle) {
  if (cycle % period_ != 0) return;
  Sample s;
  s.cycle = cycle;
  s.values.reserve(columns_.size());
  for (const auto& g : gauges_) s.values.push_back(g());
  for (const std::string& k : stat_keys_) {
    s.values.push_back(kernel_.stats().get(k));
  }
  samples_.push_back(std::move(s));
}

std::string MetricsSampler::to_json() const {
  std::string out;
  out.reserve(128 + samples_.size() * 32);
  out += "{\n\"schema\": \"ouessant.metrics.v1\",\n\"period\": ";
  out += std::to_string(period_);
  out += ",\n\"columns\": [";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += columns_[i];
    out += '"';
  }
  // Units/descriptions registry: parallel to columns, so a consumer can
  // zip the three arrays. Kept as separate arrays (not objects) to
  // preserve the compact row-array sample encoding below.
  out += "],\n\"units\": [";
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += units_[i];
    out += '"';
  }
  out += "],\n\"descriptions\": [";
  for (std::size_t i = 0; i < descs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += '"';
    out += descs_[i];
    out += '"';
  }
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
