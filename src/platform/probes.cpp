#include "platform/probes.hpp"

#include <string>

namespace ouessant::platform {

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
