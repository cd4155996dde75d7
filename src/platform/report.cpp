#include "platform/report.hpp"

#include <iomanip>
#include <sstream>

namespace ouessant::platform {

std::string UtilizationReport::render() const {
  std::ostringstream os;
  os << "cycles simulated: " << total_cycles << '\n';
  os << std::fixed << std::setprecision(1);
  os << "bus:  " << 100.0 * bus_utilization() << "% busy (" << bus_busy
     << " busy / " << bus_idle << " idle)\n";
  const u64 cpu_total = cpu_compute + cpu_bus + cpu_idle;
  if (cpu_total > 0) {
    os << "cpu:  " << 100.0 * static_cast<double>(cpu_compute) / cpu_total
       << "% compute, "
       << 100.0 * static_cast<double>(cpu_bus) / cpu_total << "% bus, "
       << 100.0 * static_cast<double>(cpu_idle) / cpu_total << "% idle\n";
  }
  for (const auto& o : ocps) {
    os << o.name << ": " << o.runs << " run(s), " << o.instructions
       << " instr, " << o.words_moved << " words moved, " << o.exec_wait
       << " exec-wait cycles, " << o.idle << " idle cycles\n";
  }
  return os.str();
}

UtilizationReport make_report(Soc& soc) {
  UtilizationReport r;
  r.total_cycles = soc.kernel().now();
  r.bus_busy = soc.bus().busy_cycles();
  r.bus_idle = soc.bus().idle_cycles();
  r.cpu_compute = soc.cpu().compute_cycles();
  r.cpu_bus = soc.cpu().bus_cycles();
  r.cpu_idle = soc.cpu().idle_cycles();
  for (std::size_t i = 0; i < soc.ocp_count(); ++i) {
    core::Ocp& ocp = soc.ocp(i);
    const auto& s = ocp.controller().stats();
    r.ocps.push_back({.name = ocp.name(),
                      .instructions = s.instructions,
                      .words_moved = s.words_to_rac + s.words_from_rac,
                      .runs = s.runs,
                      .exec_wait = s.exec_wait_cycles,
                      .idle = s.idle_cycles});
  }
  return r;
}

obs::Gauges standard_probes(Soc& soc, core::Ocp& ocp) {
  obs::Gauges probes = {
      {.name = "bus_busy", .width = 1,
       .read = [&soc] { return soc.bus().granted_now() ? 1 : 0; }},
      {.name = "ctrl_pc", .width = 14,
       .read = [&ocp] { return ocp.controller().pc(); }},
      {.name = "ctrl_state", .width = 3,
       .read = [&ocp] { return ocp.controller().state_id(); }},
      {.name = "rac_busy", .width = 1,
       .read = [&ocp] { return ocp.rac().busy() ? 1 : 0; }},
      {.name = "irq", .width = 1,
       .read = [&ocp] { return ocp.irq().raised() ? 1 : 0; }},
      {.name = "done", .width = 1,
       .read = [&ocp] { return ocp.iface().done() ? 1 : 0; }},
  };
  for (std::size_t i = 0; i < ocp.input_fifos().size(); ++i) {
    probes.push_back(
        {.name = "fifo_in" + std::to_string(i) + "_level", .width = 16,
         .read = [&ocp, i] { return ocp.input_fifos()[i]->level_bits(); }});
  }
  for (std::size_t i = 0; i < ocp.output_fifos().size(); ++i) {
    probes.push_back(
        {.name = "fifo_out" + std::to_string(i) + "_level", .width = 16,
         .read = [&ocp, i] { return ocp.output_fifos()[i]->level_bits(); }});
  }
  return probes;
}

}  // namespace ouessant::platform
