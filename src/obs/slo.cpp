#include "obs/slo.hpp"

#include <cmath>
#include <cstdio>

#include "obs/artifact.hpp"

namespace ouessant::obs {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------- monitor

SloMonitor::SloMonitor(SloConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.classes.empty()) {
    throw SimError("SloMonitor: at least one tenant class is required");
  }
  if (cfg_.short_window == 0 || cfg_.long_window < cfg_.short_window) {
    throw SimError("SloMonitor: windows must satisfy long >= short >= 1");
  }
  for (const SloObjective& o : cfg_.classes) {
    if (!(o.target > 0.0) || !(o.target < 1.0)) {
      throw SimError("SloMonitor: target must be in (0, 1) for class " +
                     o.name);
    }
  }
  state_.resize(cfg_.classes.size());
  for (std::size_t i = 0; i < cfg_.classes.size(); ++i) {
    state_[i].agg.name = cfg_.classes[i].name;
    state_[i].agg.latency_cycles = cfg_.classes[i].latency_cycles;
    state_[i].agg.target = cfg_.classes[i].target;
  }
}

void SloMonitor::Window::push(Cycle cycle, bool good, u64 span) {
  entries.emplace_back(cycle, good);
  if (!good) ++bad;
  while (!entries.empty() && entries.front().first + span < cycle) {
    if (!entries.front().second) --bad;
    entries.pop_front();
  }
}

double SloMonitor::Window::burn(double target) const {
  if (entries.empty()) return 0.0;
  const double bad_frac =
      static_cast<double>(bad) / static_cast<double>(entries.size());
  return bad_frac / (1.0 - target);
}

void SloMonitor::record(u32 cls, Cycle cycle, bool good) {
  if (cls >= state_.size()) {
    throw SimError("SloMonitor: tenant class out of range");
  }
  ClassState& st = state_[cls];
  const double target = cfg_.classes[cls].target;
  st.agg.jobs += 1;
  if (good) st.agg.good += 1;
  st.long_w.push(cycle, good, cfg_.long_window);
  st.short_w.push(cycle, good, cfg_.short_window);
  const double long_burn = st.long_w.burn(target);
  const double short_burn = st.short_w.burn(target);
  if (long_burn > st.agg.worst_burn) st.agg.worst_burn = long_burn;
  const bool firing = long_burn >= cfg_.burn_threshold &&
                      short_burn >= cfg_.burn_threshold;
  if (firing && !st.alerting) {
    st.agg.alerts += 1;
    if (st.agg.alerts == 1) st.agg.first_alert = cycle;
  }
  st.alerting = firing;
}

SloReport SloMonitor::report() const {
  SloReport rep;
  rep.long_window = cfg_.long_window;
  rep.short_window = cfg_.short_window;
  rep.burn_threshold = cfg_.burn_threshold;
  rep.shards = 1;
  for (const ClassState& st : state_) rep.classes.push_back(st.agg);
  return rep;
}

// ----------------------------------------------------------------- report

void SloReport::merge(const SloReport& other) {
  if (classes.empty() && shards == 0) {
    *this = other;
    return;
  }
  if (other.long_window != long_window ||
      other.short_window != short_window ||
      other.burn_threshold != burn_threshold ||
      other.classes.size() != classes.size()) {
    throw SimError("SloReport::merge: window/class configuration mismatch");
  }
  shards += other.shards;
  for (std::size_t i = 0; i < classes.size(); ++i) {
    SloClassReport& c = classes[i];
    const SloClassReport& o = other.classes[i];
    if (c.name != o.name || c.latency_cycles != o.latency_cycles ||
        c.target != o.target) {
      throw SimError("SloReport::merge: objective mismatch for class " +
                     c.name);
    }
    c.jobs += o.jobs;
    c.good += o.good;
    if (o.alerts > 0 && (c.alerts == 0 || o.first_alert < c.first_alert)) {
      c.first_alert = o.first_alert;
    }
    c.alerts += o.alerts;
    if (o.worst_burn > c.worst_burn) c.worst_burn = o.worst_burn;
  }
}

std::string SloReport::to_json() const {
  std::string out;
  out += "{\n\"schema\": \"ouessant.slo.v1\",\n";
  out += "\"long_window\": " + std::to_string(long_window) + ",\n";
  out += "\"short_window\": " + std::to_string(short_window) + ",\n";
  out += "\"burn_threshold\": " + fmt_double(burn_threshold) + ",\n";
  out += "\"shards\": " + std::to_string(shards) + ",\n";
  out += "\"classes\": [";
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const SloClassReport& c = classes[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\": \"" + escape(c.name) + "\", ";
    out += "\"latency_cycles\": " + std::to_string(c.latency_cycles) + ", ";
    out += "\"target\": " + fmt_double(c.target) + ", ";
    out += "\"jobs\": " + std::to_string(c.jobs) + ", ";
    out += "\"good\": " + std::to_string(c.good) + ", ";
    out += "\"alerts\": " + std::to_string(c.alerts) + ", ";
    out += "\"first_alert_cycle\": " + std::to_string(c.first_alert) + ", ";
    out += "\"worst_burn\": " + fmt_double(c.worst_burn) + "}";
  }
  out += "\n]\n}\n";
  return out;
}

void SloReport::write_json(const std::string& path) const {
  std::ofstream out = open_artifact(path, "SloReport");
  out << to_json();
}

// ----------------------------------------------------------------- parser

SloReport read_slo_report(const std::string& path) {
  const std::string text = read_artifact(path, "read_slo_report");
  JsonCursor cur(text, "read_slo_report(" + path + ")");
  SloReport rep;
  bool saw_schema = false;
  cur.object([&](const std::string& key) {
    if (key == "schema") {
      const std::string schema = cur.string();
      if (schema != "ouessant.slo.v1") {
        cur.fail("unsupported schema \"" + schema + "\"");
      }
      saw_schema = true;
    } else if (key == "long_window") {
      rep.long_window = cur.uint();
    } else if (key == "short_window") {
      rep.short_window = cur.uint();
    } else if (key == "burn_threshold") {
      rep.burn_threshold = cur.real();
    } else if (key == "shards") {
      rep.shards = cur.uint();
    } else if (key == "classes") {
      cur.array([&] {
        SloClassReport& c = rep.classes.emplace_back();
        cur.object([&](const std::string& f) {
          if (f == "name") {
            c.name = cur.string();
          } else if (f == "latency_cycles") {
            c.latency_cycles = cur.uint();
          } else if (f == "target") {
            c.target = cur.real();
          } else if (f == "jobs") {
            c.jobs = cur.uint();
          } else if (f == "good") {
            c.good = cur.uint();
          } else if (f == "alerts") {
            c.alerts = cur.uint();
          } else if (f == "first_alert_cycle") {
            c.first_alert = cur.uint();
          } else if (f == "worst_burn") {
            c.worst_burn = cur.real();
          } else {
            cur.fail("unknown class field \"" + f + "\"");
          }
        });
      });
    } else {
      cur.fail("unknown field \"" + key + "\"");
    }
  });
  cur.finish();
  if (!saw_schema) {
    cur.fail("missing \"schema\" field (not an ouessant.slo.v1 file?)");
  }
  return rep;
}

}  // namespace ouessant::obs
