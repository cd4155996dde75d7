// Protocol monitor: validates a bus's transactions against the
// single-layer bus invariants. Used by tests as an always-on assertion
// layer (the simulation analogue of an AHB protocol checker IP). The
// transactions come from the bus's event-tracer track, so watching the
// bus needs no instrument beyond the tracer.
#pragma once

#include <string>
#include <vector>

#include "bus/interconnect.hpp"
#include "obs/tracer.hpp"

namespace ouessant::bus {

struct MonitorReport {
  bool ok = true;
  std::vector<std::string> violations;
};

/// The transactions @p bus completed while @p tracer was attached,
/// rebuilt from the "wr"/"rd"/"err" spans on its "bus.<name>" track, in
/// completion order. An "err" span carries no direction, waits or
/// stalls, so its record reads write == false and zero for both.
std::vector<TxnRecord> transactions(const obs::EventTracer& tracer,
                                    const InterconnectModel& bus);

/// Check @p log for protocol violations:
///  * word-aligned addresses and non-zero burst lengths,
///  * each transaction's end cycle at/after its start cycle,
///  * minimum duration (address phase + one cycle per beat),
///  * no two transactions *complete* on the same cycle (one beat/cycle).
MonitorReport check_log(const std::vector<TxnRecord>& log,
                        const BusTimingConfig& timing);

}  // namespace ouessant::bus
