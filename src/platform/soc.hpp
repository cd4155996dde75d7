// Reference SoC assembly — the simulation equivalent of the paper's
// evaluation platform: a Leon3-class GPP and 16 MB of SRAM on an AMBA2
// AHB bus at 50 MHz, to which OCPs and baseline peripherals attach.
//
// The memory map follows Leon3/GRLIB conventions:
//   0x4000'0000  SRAM (16 MB)
//   0x8000'0000  OCP #0 registers      (further OCPs at +0x100 each)
//   0x8001'0000  baseline SlaveAccel
//   0x8002'0000  baseline DmaEngine
#pragma once

#include <memory>

#include "bus/interconnect.hpp"
#include "cpu/gpp.hpp"
#include "mem/sram.hpp"
#include "ouessant/ocp.hpp"
#include "snap/snapshot.hpp"

namespace ouessant::platform {

enum class BusKind { kAhb, kAxiLite, kAxi4 };

struct SocConfig {
  BusKind bus = BusKind::kAhb;
  u32 sram_bytes = 16u << 20;
  Addr sram_base = 0x4000'0000;
  /// The Nexys4's external SRAM pays one wait state on reads through the
  /// registered memory controller; writes are posted. This calibration
  /// reproduces the paper's ~1.5 cycles/word effective transfer cost.
  u32 sram_read_wait = 1;
  u32 sram_write_wait = 0;
  cpu::CpuCosts cpu_costs{};
  double clock_mhz = 50.0;  ///< for reporting only; timing is in cycles
};

inline constexpr Addr kOcpRegBase = 0x8000'0000;
inline constexpr Addr kSlaveAccelBase = 0x8001'0000;
inline constexpr Addr kDmaBase = 0x8002'0000;

/// Span of one OCP register window in the fixed map.
inline constexpr Addr kOcpRegSpan = 0x100;

/// How many OCPs fit between kOcpRegBase and the next fixed-map window
/// (the baseline SlaveAccel at kSlaveAccelBase). The 256th window would
/// land exactly on kSlaveAccelBase, so attach time rejects it.
inline constexpr std::size_t kMaxOcps =
    (kSlaveAccelBase - kOcpRegBase) / kOcpRegSpan;

class Soc {
 public:
  explicit Soc(SocConfig cfg = {});

  [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
  [[nodiscard]] bus::InterconnectModel& bus() { return *bus_; }
  [[nodiscard]] mem::Sram& sram() { return *sram_; }
  [[nodiscard]] cpu::Gpp& cpu() { return *cpu_; }
  [[nodiscard]] const SocConfig& config() const { return cfg_; }

  /// Attach an OCP wrapping @p rac. The n-th OCP's registers land at
  /// kOcpRegBase + n*kOcpRegSpan; throws ConfigError once the window
  /// would reach kSlaveAccelBase (n >= kMaxOcps).
  core::Ocp& add_ocp(core::Rac& rac,
                     core::IsaLevel isa = core::IsaLevel::kV2);

  [[nodiscard]] std::size_t ocp_count() const { return ocps_.size(); }
  [[nodiscard]] core::Ocp& ocp(std::size_t i = 0) { return *ocps_.at(i); }

  /// Microseconds for @p cycles at the configured clock.
  [[nodiscard]] double us(u64 cycles) const {
    return static_cast<double>(cycles) / cfg_.clock_mhz;
  }

  // -- snapshot / warm-boot cloning ---------------------------------------
  /// Serialize the whole stack: the kernel's clock + Stats + every
  /// registered component, plus a "soc" section with the configuration
  /// fingerprint (bus kind, SRAM geometry, OCP count), the SRAM
  /// contents and the CPU's accounting. Only legal between ticks with
  /// no driver code mid-transaction.
  [[nodiscard]] snap::Snapshot snapshot() const;
  /// Restore this Soc from @p snap. The target must be built from the
  /// same SocConfig shape (fingerprint is validated first); afterwards
  /// clocks, Stats and all component state are bit-identical to the
  /// saved stack — running both forward produces identical histories.
  void restore(const snap::Snapshot& snap);

 private:
  /// The "soc" section's field list; a restore walks the kernel's
  /// sections from @p image once the fingerprint matched.
  void state(snap::Fields& f, const snap::Snapshot& image);

  SocConfig cfg_;
  sim::Kernel kernel_;
  std::unique_ptr<bus::InterconnectModel> bus_;
  std::unique_ptr<mem::Sram> sram_;
  bus::BusMasterPort* cpu_port_ = nullptr;
  std::unique_ptr<cpu::Gpp> cpu_;
  std::vector<std::unique_ptr<core::Ocp>> ocps_;
};

}  // namespace ouessant::platform
