#include "exp/param.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "obs/artifact.hpp"

namespace ouessant::exp {

i64 Value::as_int() const {
  if (kind_ != Kind::kInt) {
    throw ConfigError("exp::Value: not an integer (holds \"" + str() + "\")");
  }
  return i_;
}

double Value::as_real() const {
  if (kind_ == Kind::kReal) return d_;
  if (kind_ == Kind::kInt) return static_cast<double>(i_);
  throw ConfigError("exp::Value: not a number (holds \"" + str() + "\")");
}

const std::string& Value::as_str() const {
  if (kind_ != Kind::kStr) {
    throw ConfigError("exp::Value: not a string (holds \"" + str() + "\")");
  }
  return s_;
}

std::string Value::str() const {
  switch (kind_) {
    case Kind::kInt:
      return std::to_string(i_);
    case Kind::kStr:
      return s_;
    case Kind::kReal: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", d_);
      return buf;
    }
  }
  return {};
}

std::string Value::json() const {
  switch (kind_) {
    case Kind::kInt:
      return std::to_string(i_);
    case Kind::kReal: {
      if (!std::isfinite(d_)) return "null";
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", d_);
      return buf;
    }
    case Kind::kStr:
      return '"' + obs::json_escape(s_) + '"';
  }
  return "null";
}

bool operator==(const Value& a, const Value& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case Value::Kind::kInt:
      return a.i_ == b.i_;
    case Value::Kind::kReal:
      return a.d_ == b.d_;
    case Value::Kind::kStr:
      return a.s_ == b.s_;
  }
  return false;
}

void ParamMap::set(const std::string& key, Value v) {
  for (auto& [k, old] : kv_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  kv_.emplace_back(key, std::move(v));
}

bool ParamMap::has(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

const Value& ParamMap::at(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  throw ConfigError("ParamMap: no parameter \"" + key + "\" in {" + str() +
                    "}");
}

i64 ParamMap::get_int(const std::string& key) const { return at(key).as_int(); }

u32 ParamMap::get_u32(const std::string& key) const {
  return static_cast<u32>(at(key).as_int());
}

double ParamMap::get_real(const std::string& key) const {
  return at(key).as_real();
}

const std::string& ParamMap::get_str(const std::string& key) const {
  return at(key).as_str();
}

std::string ParamMap::str() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [k, v] : kv_) {
    if (!first) os << ' ';
    first = false;
    os << k << '=' << v.str();
  }
  return os.str();
}

}  // namespace ouessant::exp
