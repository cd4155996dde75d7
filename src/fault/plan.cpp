#include "fault/plan.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>

namespace ouessant::fault {

const char* kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kBusError: return "bus_err";
    case FaultKind::kRacHang: return "rac_hang";
    case FaultKind::kFifoCorrupt: return "fifo_corrupt";
    case FaultKind::kCtrlFlip: return "ctrl_flip";
    case FaultKind::kIrqDrop: return "irq_drop";
  }
  return "?";
}

namespace {

void validate(const FaultSpec& spec) {
  // Written so that a NaN probability fails the range test.
  if (!(spec.prob >= 0.0 && spec.prob <= 1.0)) {
    throw ConfigError("FaultPlan: p= must be in [0, 1]");
  }
  if (spec.at == 0 && spec.prob == 0.0) {
    throw ConfigError(std::string("FaultPlan: ") + kind_name(spec.kind) +
                      " needs at=CYCLE or p=PROB to ever fire");
  }
  if (spec.at > 0 && spec.prob > 0.0) {
    throw ConfigError(std::string("FaultPlan: ") + kind_name(spec.kind) +
                      " cannot combine at= and p=");
  }
  if (spec.bit > 31) {
    throw ConfigError("FaultPlan: bit= must be in [0, 31]");
  }
  if (spec.ocp < -1) {
    throw ConfigError("FaultPlan: ocp= must be >= 0 (or -1 for any)");
  }
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

ConfigError bad_value(const std::string& key, const std::string& text,
                      const std::string& why) {
  return ConfigError("FaultPlan: " + key + "='" + text + "' " + why);
}

/// An unsigned decimal integer no larger than @p max, the field's width.
/// from_chars already refuses a sign, whitespace and a 0x prefix; a
/// leading zero is refused here, not read as octal.
u64 parse_uint(const std::string& key, const std::string& text, u64 max) {
  const char* end = text.data() + text.size();
  u64 v = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end) {
    throw bad_value(key, text, "is not a decimal integer");
  }
  if (text.size() > 1 && text[0] == '0') {
    throw bad_value(key, text, "has a leading zero");
  }
  if (ec == std::errc::result_out_of_range || v > max) {
    throw bad_value(key, text, "is past the field's maximum " +
                                   std::to_string(max));
  }
  return v;
}

/// A finite decimal real (range-checked by validate()).
double parse_prob(const std::string& text) {
  const char* end = text.data() + text.size();
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end) {
    throw bad_value("p", text, "is not a decimal number");
  }
  if (!std::isfinite(v)) throw bad_value("p", text, "is not finite");
  return v;
}

FaultKind parse_kind(const std::string& site) {
  for (std::size_t k = 0; k < kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (site == kind_name(kind)) return kind;
  }
  throw ConfigError("FaultPlan: unknown fault site '" + site +
                    "' (expected bus_err|rac_hang|fifo_corrupt|ctrl_flip|"
                    "irq_drop)");
}

}  // namespace

FaultPlan& FaultPlan::add(const FaultSpec& spec) {
  validate(spec);
  specs.push_back(spec);
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& text) {
  constexpr u64 kU32Max = std::numeric_limits<u32>::max();
  FaultPlan plan;
  bool seeded = false;
  for (const std::string& clause : split(text, ';')) {
    if (clause.empty()) continue;
    if (clause.rfind("seed=", 0) == 0) {
      if (seeded) throw ConfigError("FaultPlan: seed= given twice");
      seeded = true;
      plan.seed = parse_uint("seed", clause.substr(5),
                             std::numeric_limits<u64>::max());
      continue;
    }
    const std::size_t at_pos = clause.find('@');
    FaultSpec spec;
    spec.kind = parse_kind(clause.substr(0, at_pos));
    if (at_pos != std::string::npos) {
      std::set<std::string> seen;
      for (const std::string& field : split(clause.substr(at_pos + 1), ',')) {
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos) {
          throw ConfigError("FaultPlan: field '" + field +
                            "' is not key=value");
        }
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        if (!seen.insert(key).second) {
          throw ConfigError("FaultPlan: " + key + "= given twice in '" +
                            clause + "'");
        }
        if (key == "ocp") {
          spec.ocp = val == "-1" ? -1
                                 : static_cast<int>(parse_uint(
                                       key, val,
                                       std::numeric_limits<int>::max()));
        } else if (key == "at") {
          spec.at = parse_uint(key, val, std::numeric_limits<u64>::max());
        } else if (key == "p") {
          spec.prob = parse_prob(val);
        } else if (key == "count") {
          spec.count = static_cast<u32>(parse_uint(key, val, kU32Max));
        } else if (key == "bit") {
          spec.bit = static_cast<u32>(parse_uint(key, val, kU32Max));
        } else {
          throw ConfigError("FaultPlan: unknown field '" + key +
                            "' (expected ocp|at|p|count|bit)");
        }
      }
    }
    plan.add(spec);
  }
  return plan;
}

std::string FaultPlan::str() const {
  std::ostringstream os;
  os << "seed=" << seed;
  for (const FaultSpec& spec : specs) {
    os << ';' << kind_name(spec.kind);
    os << '@';
    bool first = true;
    auto field = [&](const std::string& kv) {
      if (!first) os << ',';
      os << kv;
      first = false;
    };
    if (spec.ocp >= 0) field("ocp=" + std::to_string(spec.ocp));
    if (spec.at > 0) field("at=" + std::to_string(spec.at));
    if (spec.prob > 0.0) {
      std::ostringstream p;
      p << "p=" << spec.prob;
      field(p.str());
    }
    if (spec.count > 0) field("count=" + std::to_string(spec.count));
    if (spec.bit != 31) field("bit=" + std::to_string(spec.bit));
  }
  return os.str();
}

}  // namespace ouessant::fault
