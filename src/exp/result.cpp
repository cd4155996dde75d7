#include "exp/result.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ouessant::exp {

std::string render_table(const std::vector<Result>& rows) {
  if (rows.empty()) return "(no results)\n";

  // Column set: params of the first row (all rows of one scenario share
  // the grid), then the union of metric names in first-seen order.
  std::vector<std::string> cols;
  std::vector<bool> is_param;
  for (const auto& [k, v] : rows.front().params.entries()) {
    cols.push_back(k);
    is_param.push_back(true);
  }
  for (const auto& row : rows) {
    for (const auto& [k, v] : row.metrics.entries()) {
      if (std::find(cols.begin(), cols.end(), k) == cols.end()) {
        cols.push_back(k);
        is_param.push_back(false);
      }
    }
  }

  auto cell = [](const Result& row, const std::string& col,
                 bool param) -> std::string {
    const ParamMap& m = param ? row.params : row.metrics;
    return m.has(col) ? m.at(col).str() : "-";
  };

  std::vector<std::size_t> width(cols.size());
  for (std::size_t c = 0; c < cols.size(); ++c) {
    width[c] = cols[c].size();
    for (const auto& row : rows) {
      width[c] = std::max(width[c], cell(row, cols[c], is_param[c]).size());
    }
  }

  std::ostringstream os;
  for (std::size_t c = 0; c < cols.size(); ++c) {
    os << (c ? "  " : "");
    os.width(static_cast<std::streamsize>(width[c]));
    os << (is_param[c] ? std::left : std::right);
    os << cols[c];
  }
  os << '\n';
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      os << (c ? "  " : "");
      os.width(static_cast<std::streamsize>(width[c]));
      os << (is_param[c] ? std::left : std::right);
      os << cell(row, cols[c], is_param[c]);
    }
    if (!row.ok) os << "  !! " << row.error;
    os << '\n';
  }
  return os.str();
}

namespace {

void append_map(std::ostringstream& os, const ParamMap& m) {
  os << '{';
  bool first = true;
  for (const auto& [k, v] : m.entries()) {
    if (!first) os << ", ";
    first = false;
    os << Value(k).json() << ": " << v.json();
  }
  os << '}';
}

}  // namespace

std::string to_json(const std::vector<Result>& results,
                    const std::vector<std::string>& meta_lines) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"ouessant.sweep.v1\",\n  \"meta\": {";
  for (std::size_t i = 0; i < meta_lines.size(); ++i) {
    os << (i ? ",\n           " : "\n           ") << meta_lines[i];
  }
  os << "\n  },\n  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << "    {\"scenario\": " << Value(r.scenario).json()
       << ", \"experiment\": " << Value(r.experiment).json()
       << ", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.error.empty()) os << ", \"error\": " << Value(r.error).json();
    os << ",\n     \"params\": ";
    append_map(os, r.params);
    os << ",\n     \"metrics\": ";
    append_map(os, r.metrics);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6f", r.host_seconds);
    os << ",\n     \"host_seconds\": " << buf << '}'
       << (i + 1 < results.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

void write_json(const std::string& path, const std::vector<Result>& results,
                const std::vector<std::string>& meta_lines) {
  std::ofstream out(path);
  if (!out) throw SimError("exp::write_json: cannot open " + path);
  out << to_json(results, meta_lines);
  if (!out.good()) throw SimError("exp::write_json: write failed on " + path);
}

}  // namespace ouessant::exp
