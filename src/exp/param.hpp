// Parameter points for the experiment layer.
//
// A ScenarioSpec declares a grid of named axes; the sweep engine expands
// the cartesian product into ParamMaps and hands one to each run. A
// ParamMap is a small ordered key->value record (order = declaration
// order, so tables, JSON and result comparison are deterministic).
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace ouessant::exp {

/// One typed parameter (or metric) value. Kept deliberately small: the
/// experiment grids only need integers, reals and labels.
class Value {
 public:
  enum class Kind { kInt, kReal, kStr };

  Value() : kind_(Kind::kInt), i_(0), d_(0.0) {}
  Value(i64 v) : kind_(Kind::kInt), i_(v), d_(0.0) {}          // NOLINT
  Value(u64 v) : Value(static_cast<i64>(v)) {}                 // NOLINT
  Value(u32 v) : Value(static_cast<i64>(v)) {}                 // NOLINT
  Value(int v) : Value(static_cast<i64>(v)) {}                 // NOLINT
  Value(double v) : kind_(Kind::kReal), i_(0), d_(v) {}        // NOLINT
  Value(std::string v)                                         // NOLINT
      : kind_(Kind::kStr), i_(0), d_(0.0), s_(std::move(v)) {}
  Value(const char* v) : Value(std::string(v)) {}              // NOLINT

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] i64 as_int() const;
  [[nodiscard]] double as_real() const;
  [[nodiscard]] const std::string& as_str() const;

  /// Render for tables and logs ("64", "1.594", "v2 loop").
  [[nodiscard]] std::string str() const;
  /// Render as a JSON literal (strings quoted/escaped, reals with enough
  /// digits to round-trip).
  [[nodiscard]] std::string json() const;

  friend bool operator==(const Value& a, const Value& b);

 private:
  Kind kind_;
  i64 i_;
  double d_;
  std::string s_;
};

/// Ordered key -> Value record. Lookup is linear — maps hold a handful of
/// entries and are built once per run.
class ParamMap {
 public:
  void set(const std::string& key, Value v);

  [[nodiscard]] bool has(const std::string& key) const;
  /// Throws ConfigError when @p key is absent (a scenario asking for a
  /// parameter its grid never declared is a programming error).
  [[nodiscard]] const Value& at(const std::string& key) const;
  [[nodiscard]] i64 get_int(const std::string& key) const;
  [[nodiscard]] u32 get_u32(const std::string& key) const;
  [[nodiscard]] double get_real(const std::string& key) const;
  [[nodiscard]] const std::string& get_str(const std::string& key) const;

  [[nodiscard]] const std::vector<std::pair<std::string, Value>>& entries()
      const {
    return kv_;
  }
  [[nodiscard]] bool empty() const { return kv_.empty(); }

  /// "burst=64 isa=v1" — stable, human-readable point id.
  [[nodiscard]] std::string str() const;

  friend bool operator==(const ParamMap& a, const ParamMap& b) {
    return a.kv_ == b.kv_;
  }

 private:
  std::vector<std::pair<std::string, Value>> kv_;
};

}  // namespace ouessant::exp
