// System-level observability: utilization reporting and waveform probes
// for a running SoC. Benches print the report; debugging sessions hand
// the standard probes to an obs::VcdTrace ("the result was easy to
// simulate" — §V-B).
#pragma once

#include <string>

#include "obs/gauges.hpp"
#include "platform/soc.hpp"

namespace ouessant::platform {

struct UtilizationReport {
  u64 total_cycles = 0;
  u64 bus_busy = 0;
  u64 bus_idle = 0;
  u64 cpu_compute = 0;
  u64 cpu_bus = 0;
  u64 cpu_idle = 0;

  struct OcpRow {
    std::string name;
    u64 instructions = 0;
    u64 words_moved = 0;
    u64 runs = 0;
    u64 exec_wait = 0;
    u64 idle = 0;
  };
  std::vector<OcpRow> ocps;

  [[nodiscard]] double bus_utilization() const {
    const u64 t = bus_busy + bus_idle;
    return t == 0 ? 0.0 : static_cast<double>(bus_busy) / static_cast<double>(t);
  }

  [[nodiscard]] std::string render() const;
};

/// Snapshot the SoC's counters into a report.
[[nodiscard]] UtilizationReport make_report(Soc& soc);

/// The standard probe set for one OCP: bus occupancy, controller PC and
/// phase, RAC busy, IRQ, done and FIFO levels. The gauges read @p soc
/// and @p ocp, so a writer over them must not outlive either.
[[nodiscard]] obs::Gauges standard_probes(Soc& soc, core::Ocp& ocp);

}  // namespace ouessant::platform
