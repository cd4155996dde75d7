#include "bus/monitor.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace ouessant::bus {

std::vector<TxnRecord> transactions(const obs::EventTracer& tracer,
                                    const InterconnectModel& bus) {
  // The bus owns its track and emits only its wr/rd/err spans there. An
  // absent track leaves tid past every interned id, matching nothing.
  const auto& tracks = tracer.track_names();
  const auto tid = static_cast<obs::TrackId>(
      std::find(tracks.begin(), tracks.end(), "bus." + bus.name()) -
      tracks.begin());
  std::vector<TxnRecord> log;
  for (const obs::EventTracer::Event& e : tracer.events()) {
    if (e.ph != 'X' || e.tid != tid) continue;
    TxnRecord& t = log.emplace_back();
    t.start = e.ts;
    t.end = e.ts + e.dur;
    t.write = e.name == "wr";
    for (const obs::Arg& a : e.args) {
      if (a.key == "master") t.master = a.s;
      if (a.key == "addr") t.addr = static_cast<Addr>(a.u);
      if (a.key == "beats") t.beats = static_cast<u32>(a.u);
      if (a.key == "waits") t.waits = static_cast<u32>(a.u);
      if (a.key == "stalls") t.stalls = static_cast<u32>(a.u);
    }
  }
  return log;
}

MonitorReport check_log(const std::vector<TxnRecord>& log,
                        const BusTimingConfig& timing) {
  MonitorReport r;
  auto fail = [&r](const std::string& msg) {
    r.ok = false;
    r.violations.push_back(msg);
  };

  std::set<Cycle> completion_cycles;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const TxnRecord& t = log[i];
    std::ostringstream id;
    id << "txn#" << i << " (" << t.master << (t.write ? " W " : " R ")
       << "0x" << std::hex << t.addr << std::dec << " x" << t.beats << ")";

    if (t.addr % 4 != 0) fail(id.str() + ": unaligned address");
    if (t.beats == 0) fail(id.str() + ": zero-length burst");
    if (t.end < t.start) fail(id.str() + ": ends before it starts");

    // Minimum cycles: one address phase per grant chunk + one per beat.
    const u32 grants =
        (t.beats + timing.max_beats_per_grant - 1) / timing.max_beats_per_grant;
    const u64 min_cycles =
        static_cast<u64>(grants) * timing.address_phase_cycles + t.beats;
    // start is the cycle of the first grant; end is the cycle index after
    // the final beat's commit, so duration = end - start + 1 >= min.
    if (t.end - t.start + 1 < min_cycles) {
      fail(id.str() + ": faster than protocol minimum");
    }

    if (!completion_cycles.insert(t.end).second) {
      fail(id.str() + ": two transactions complete on the same cycle");
    }
  }
  return r;
}

}  // namespace ouessant::bus
