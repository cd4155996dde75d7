#include "platform/soc.hpp"

namespace ouessant::platform {

Soc::Soc(SocConfig cfg) : cfg_(cfg) {
  // Reject configurations that would only fail later (and silently):
  // clock_mhz <= 0 turns us() into inf/NaN in every report, and an empty
  // SRAM maps a zero-length region no access can ever hit.
  if (!(cfg_.clock_mhz > 0.0)) {
    throw ConfigError("SocConfig: clock_mhz must be > 0 (got " +
                      std::to_string(cfg_.clock_mhz) + ")");
  }
  if (cfg_.sram_bytes == 0) {
    throw ConfigError("SocConfig: sram_bytes must be non-zero");
  }
  switch (cfg_.bus) {
    case BusKind::kAhb:
      bus_ = std::make_unique<bus::AhbBus>(kernel_, "ahb");
      break;
    case BusKind::kAxiLite:
      bus_ = std::make_unique<bus::AxiLiteBus>(kernel_, "axi");
      break;
    case BusKind::kAxi4:
      bus_ = std::make_unique<bus::Axi4Bus>(kernel_, "axi4");
      break;
  }
  sram_ = std::make_unique<mem::Sram>("sram", cfg_.sram_base, cfg_.sram_bytes,
                                      cfg_.sram_read_wait,
                                      cfg_.sram_write_wait);
  bus_->connect_slave(*sram_, cfg_.sram_base, cfg_.sram_bytes);
  // The CPU gets the highest fixed priority, like the Leon3 on its AHB.
  cpu_port_ = &bus_->connect_master("cpu", /*priority=*/0);
  cpu_ = std::make_unique<cpu::Gpp>(kernel_, *cpu_port_, cfg_.cpu_costs);
}

core::Ocp& Soc::add_ocp(core::Rac& rac, core::IsaLevel isa) {
  // The fixed map reserves [kOcpRegBase, kSlaveAccelBase) for OCP
  // register windows; the kMaxOcps-th window would land exactly on the
  // baseline SlaveAccel. Reject here, at attach time, with the map in the
  // message — the same class of overlap connect_slave rejects for slaves
  // that are actually mapped.
  if (ocps_.size() >= kMaxOcps) {
    throw ConfigError(
        "Soc::add_ocp: OCP #" + std::to_string(ocps_.size()) +
        " register window would overlap the fixed map at kSlaveAccelBase "
        "(max " +
        std::to_string(kMaxOcps) + " OCPs)");
  }
  core::OcpConfig ocp_cfg;
  ocp_cfg.reg_base =
      kOcpRegBase + static_cast<Addr>(ocps_.size()) * kOcpRegSpan;
  ocp_cfg.master_priority = 1 + static_cast<int>(ocps_.size());
  ocp_cfg.isa_level = isa;
  ocps_.push_back(std::make_unique<core::Ocp>(
      kernel_, "ocp" + std::to_string(ocps_.size()), *bus_, rac, ocp_cfg));
  return *ocps_.back();
}

snap::Snapshot Soc::snapshot() const {
  snap::Snapshot s;
  kernel_.save_to(s);
  auto& self = const_cast<Soc&>(*this);  // a save only reads
  s.write("soc", 1, [&](snap::Fields& f) { self.state(f, s); });
  return s;
}

void Soc::restore(const snap::Snapshot& snap) {
  snap.read("soc", 1, [&](snap::Fields& f) { state(f, snap); });
}

void Soc::state(snap::Fields& f, const snap::Snapshot& image) {
  // The configuration fingerprint comes first: a mismatched image must
  // leave the target untouched, so the kernel walk restores only after
  // it matched.
  f.expect<u8>("bus_kind", cfg_.bus);
  f.expect<u32>("sram_bytes", cfg_.sram_bytes);
  f.expect<u64>("sram_base", cfg_.sram_base);
  f.expect<u32>("ocp_count", ocps_.size());
  if (f.restoring()) kernel_.restore_from(image);
  sram_->state(f);
  cpu_->state(f);
}

}  // namespace ouessant::platform
