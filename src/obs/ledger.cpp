#include "obs/ledger.hpp"

#include <cstdio>

namespace ouessant::obs {

CycleLedger::Track& CycleLedger::at(TrackId t) {
  if (t >= tracks_.size()) {
    throw ConfigError("CycleLedger: no such track");
  }
  return tracks_[t];
}

const CycleLedger::Track& CycleLedger::at(TrackId t) const {
  if (t >= tracks_.size()) {
    throw ConfigError("CycleLedger: no such track");
  }
  return tracks_[t];
}

CycleLedger::TrackId CycleLedger::add_track(const std::string& name) {
  for (const Track& t : tracks_) {
    if (t.name == name) {
      throw ConfigError("CycleLedger: duplicate track " + name);
    }
  }
  tracks_.push_back(Track{.name = name});
  return static_cast<TrackId>(tracks_.size() - 1);
}

void CycleLedger::credit(TrackId t, Category c, u64 cycles) {
  Track& tr = at(t);
  if (tr.closed) {
    throw SimError("CycleLedger: credit to closed track " + tr.name);
  }
  tr.cat[static_cast<std::size_t>(c)] += cycles;
}

u64 CycleLedger::close_track(TrackId t, Cycle wall, Category remainder) {
  Track& tr = at(t);
  if (tr.closed) {
    throw SimError("CycleLedger: track " + tr.name + " closed twice");
  }
  u64 sum = 0;
  for (const u64 v : tr.cat) sum += v;
  if (sum > wall) {
    throw SimError("CycleLedger: track " + tr.name + " over-committed (" +
                   std::to_string(sum) + " credited cycles > " +
                   std::to_string(wall) + " wall cycles)");
  }
  tr.pad = wall - sum;
  tr.cat[static_cast<std::size_t>(remainder)] += tr.pad;
  tr.closed = true;
  return tr.pad;
}

void CycleLedger::validate(Cycle wall) const {
  for (const Track& tr : tracks_) {
    if (!tr.closed) {
      throw SimError("CycleLedger: track " + tr.name + " never closed");
    }
    u64 sum = 0;
    for (const u64 v : tr.cat) sum += v;
    if (sum != wall) {
      throw SimError("CycleLedger: track " + tr.name + " sums to " +
                     std::to_string(sum) + " != wall " +
                     std::to_string(wall));
    }
  }
}

u64 CycleLedger::total(TrackId t, Category c) const {
  return at(t).cat[static_cast<std::size_t>(c)];
}

u64 CycleLedger::track_sum(TrackId t) const {
  u64 sum = 0;
  for (const u64 v : at(t).cat) sum += v;
  return sum;
}

u64 CycleLedger::category_sum(Category c) const {
  u64 sum = 0;
  for (const Track& tr : tracks_) sum += tr.cat[static_cast<std::size_t>(c)];
  return sum;
}

u64 CycleLedger::padding(TrackId t) const { return at(t).pad; }

bool CycleLedger::closed(TrackId t) const { return at(t).closed; }

const std::string& CycleLedger::track_name(TrackId t) const {
  return at(t).name;
}

std::string CycleLedger::render(Cycle wall) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-24s %10s %10s %10s %10s %10s\n",
                "track", "transfer", "compute", "control", "wait", "idle");
  out += line;
  for (const Track& tr : tracks_) {
    std::snprintf(line, sizeof line,
                  "%-24s %10llu %10llu %10llu %10llu %10llu\n",
                  tr.name.c_str(),
                  static_cast<unsigned long long>(tr.cat[0]),
                  static_cast<unsigned long long>(tr.cat[1]),
                  static_cast<unsigned long long>(tr.cat[2]),
                  static_cast<unsigned long long>(tr.cat[3]),
                  static_cast<unsigned long long>(tr.cat[4]));
    out += line;
    if (wall > 0) {
      const auto pct = [wall](u64 v) {
        return 100.0 * static_cast<double>(v) / static_cast<double>(wall);
      };
      std::snprintf(line, sizeof line,
                    "%-24s %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n", "",
                    pct(tr.cat[0]), pct(tr.cat[1]), pct(tr.cat[2]),
                    pct(tr.cat[3]), pct(tr.cat[4]));
      out += line;
    }
  }
  return out;
}

}  // namespace ouessant::obs
