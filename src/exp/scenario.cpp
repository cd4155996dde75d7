#include "exp/scenario.hpp"

namespace ouessant::exp {

std::vector<ParamMap> ScenarioSpec::points() const {
  std::vector<ParamMap> out;
  ParamMap point;
  // Depth-first product, last axis fastest — mirrors the nested loops of
  // the pre-registry bench binaries.
  const std::function<void(std::size_t)> expand = [&](std::size_t axis) {
    if (axis == grid.size()) {
      if (!skip || !skip(point)) out.push_back(point);
      return;
    }
    for (const Value& v : grid[axis].values) {
      point.set(grid[axis].name, v);
      expand(axis + 1);
    }
  };
  expand(0);
  return out;
}

std::size_t ScenarioSpec::point_count() const { return points().size(); }

void Registry::add(ScenarioSpec spec) {
  if (spec.name.empty()) {
    throw ConfigError("Registry::add: scenario needs a name");
  }
  if (!spec.run) {
    throw ConfigError("Registry::add(" + spec.name + "): no run function");
  }
  if (find(spec.name) != nullptr) {
    throw ConfigError("Registry::add: duplicate scenario \"" + spec.name +
                      "\"");
  }
  scenarios_.push_back(std::move(spec));
}

const ScenarioSpec* Registry::find(const std::string& name) const {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace ouessant::exp
