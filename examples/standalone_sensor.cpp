// Processor-free signal conditioning — the paper's "Standalone operation
// is also studied, to provide control for processor-free designs".
//
// There is NO CPU in this SoC. The OCP's configuration registers are
// strap-initialised (preconfigure), the microcode lives in a boot ROM,
// and autostart+auto-restart keep the pipeline free-running: every pass
// moves a window of sensor samples through a low-pass FIR and writes the
// conditioned block for a downstream consumer. A DMA-less sensor frontend
// (a tiny bus master component) deposits fresh samples concurrently.
#include <cmath>
#include <cstdio>

#include "ouessant/codegen.hpp"
#include "platform/soc.hpp"
#include "rac/fir.hpp"
#include "util/fixed.hpp"
#include "util/rng.hpp"

using namespace ouessant;

namespace {

constexpr Addr kRomBase = 0x0000'0000;
constexpr Addr kSamples = 0x4000'0000;
constexpr Addr kFiltered = 0x4001'0000;
constexpr u32 kWindow = 64;

/// Sensor frontend: a bus master that writes one fresh sample per fixed
/// interval into the circular sample window (models an ADC interface).
class SensorFrontend : public sim::Component {
 public:
  SensorFrontend(sim::Kernel& kernel, bus::BusMasterPort& port)
      : sim::Component(kernel, "sensor"), port_(port) {}

  void tick_compute() override {
    if (port_.busy()) return;
    if (++divider_ < 8) return;  // one sample every 8 cycles
    divider_ = 0;
    const double t = static_cast<double>(n_);
    const double v = 0.4 * std::sin(2.0 * M_PI * t / 37.0) +
                     0.15 * (rng_.uniform() - 0.5);
    const util::Q q(16);
    port_.start_write(kSamples + (n_ % kWindow) * 4,
                      {static_cast<u32>(util::to_word(q.from_double(v)))});
    ++n_;
  }

  [[nodiscard]] u64 samples_written() const { return n_; }

 private:
  bus::BusMasterPort& port_;
  util::Rng rng_{99};
  u32 divider_ = 0;
  u64 n_ = 0;
};

}  // namespace

int main() {
  sim::Kernel kernel;
  bus::AhbBus bus(kernel, "ahb");
  mem::Sram sram("sram", 0x4000'0000, 1 << 20);
  bus.connect_slave(sram, 0x4000'0000, 1 << 20);

  // Boot ROM with the free-running microcode.
  const core::Program prog = core::build_stream_program(
      {.in_words = kWindow, .out_words = kWindow, .burst = kWindow});
  mem::Rom rom("boot_rom", kRomBase, prog.image());
  bus.connect_slave(rom, kRomBase, rom.size_bytes());

  // The conditioning filter.
  const util::Q q(16);
  std::vector<i32> taps;
  for (int n = 0; n < 8; ++n) taps.push_back(q.from_double(1.0 / 8.0));
  rac::FirRac fir(kernel, "boxcar8", taps, kWindow);

  core::Ocp ocp(kernel, "ocp", bus, fir, {.reg_base = 0x8000'0000});
  ocp.iface().preconfigure({kRomBase, kSamples, kFiltered, 0, 0, 0, 0, 0},
                           static_cast<u32>(prog.size()));
  ocp.iface().set_standalone(/*autostart=*/true, /*auto_restart=*/true);

  // The concurrent sensor frontend (lower priority than the OCP).
  auto& sensor_port = bus.connect_master("sensor", /*priority=*/5);
  SensorFrontend sensor(kernel, sensor_port);

  std::printf("processor-free SoC: ROM microcode, strap-configured OCP, "
              "free-running FIR\n\n");
  const u64 horizon = 20'000;
  kernel.run(horizon);

  std::printf("after %llu cycles:\n",
              static_cast<unsigned long long>(horizon));
  std::printf("  sensor samples written: %llu\n",
              static_cast<unsigned long long>(sensor.samples_written()));
  std::printf("  FIR passes completed:   %llu (one per %u-sample window)\n",
              static_cast<unsigned long long>(fir.completed_ops()), kWindow);
  std::printf("  controller runs:        %llu, instructions: %llu\n",
              static_cast<unsigned long long>(ocp.controller().stats().runs),
              static_cast<unsigned long long>(
                  ocp.controller().stats().instructions));

  // Show a slice of the conditioned output.
  std::printf("\nfiltered window head: ");
  for (u32 i = 0; i < 6; ++i) {
    std::printf("%+.3f ", q.to_double(util::from_word(
                              sram.peek(kFiltered + i * 4))));
  }
  std::printf("\n\nno CPU was constructed; the bus log shows only the OCP "
              "and the sensor.\n");
  return fir.completed_ops() > 10 ? 0 : 1;
}
