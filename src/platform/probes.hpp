// Waveform probes for a running SoC: the standard gauge set of one OCP,
// handed to an obs::VcdTrace or obs::MetricsSampler ("the result was
// easy to simulate" — §V-B). Cycle accounting is the CycleLedger's
// (obs/collect.hpp).
#pragma once

#include "obs/gauges.hpp"
#include "platform/soc.hpp"

namespace ouessant::platform {

/// The standard probe set for one OCP: bus occupancy, controller PC and
/// phase, RAC busy, IRQ, done and FIFO levels. The gauges read @p soc
/// and @p ocp, so a writer over them must not outlive either.
[[nodiscard]] obs::Gauges standard_probes(Soc& soc, core::Ocp& ocp);

}  // namespace ouessant::platform
