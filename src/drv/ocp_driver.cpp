#include "drv/ocp_driver.hpp"

namespace ouessant::drv {

using core::kCtrlBusy;
using core::kCtrlChain;
using core::kCtrlDone;
using core::kCtrlErr;
using core::kCtrlIe;
using core::kCtrlProg;
using core::kCtrlRst;
using core::kCtrlStart;

namespace {

/// Both waits' ERR exit: the registers say only that ERR is set.
[[noreturn]] void throw_microcode_fault(const std::string& name, Cycle now) {
  throw SimError("OcpDriver(" + name +
                 "): OCP signalled a microcode fault at cycle " +
                 std::to_string(now));
}

}  // namespace

OcpDriver::OcpDriver(cpu::Gpp& gpp, Addr reg_base, cpu::IrqLine& irq,
                     std::string name)
    : gpp_(gpp), base_(reg_base), irq_(irq), name_(std::move(name)) {}

void OcpDriver::set_bank(u32 n, Addr phys) {
  if (n >= core::kNumBankRegs) {
    throw SimError("OcpDriver(" + name_ + "): bank index out of range");
  }
  gpp_.write32(base_ + core::bank_reg(n), phys);
}

void OcpDriver::install_program(Addr prog_base, const core::Program& prog) {
  const auto image = prog.image();
  gpp_.write_burst(prog_base, image);
  set_bank(core::kProgramBank, prog_base);
  gpp_.write32(base_ + core::kRegProgSize, static_cast<u32>(image.size()));
}

void OcpDriver::install_program_backdoor(mem::Sram& mem, Addr prog_base,
                                         const core::Program& prog) {
  mem.load(prog_base, prog.image());
  set_bank(core::kProgramBank, prog_base);
  gpp_.write32(base_ + core::kRegProgSize, static_cast<u32>(prog.size()));
}

u32 OcpDriver::shadow() const {
  return (ie_ ? kCtrlIe : 0u) | (chain_ ? kCtrlChain : 0u);
}

void OcpDriver::enable_irq(bool on) {
  ie_ = on;
  gpp_.write32(base_ + core::kRegCtrl, shadow());
}

void OcpDriver::enable_chain(bool on) {
  chain_ = on;
  gpp_.write32(base_ + core::kRegCtrl, shadow());
}

void OcpDriver::start() {
  gpp_.write32(base_ + core::kRegCtrl, kCtrlStart | shadow());
}

u32 OcpDriver::read_ctrl() { return gpp_.read32(base_ + core::kRegCtrl); }

bool OcpDriver::done_bit_set() { return (read_ctrl() & kCtrlDone) != 0; }

void OcpDriver::clear_done() {
  gpp_.write32(base_ + core::kRegCtrl, kCtrlDone | shadow());
}

void OcpDriver::clear_error() {
  gpp_.write32(base_ + core::kRegCtrl, kCtrlErr | shadow());
}

u32 OcpDriver::wait_done_poll(u64 poll_gap, u64 timeout) {
  const Cycle t0 = gpp_.now();
  u32 polls = 0;
  for (;;) {
    const u32 ctrl = read_ctrl();
    ++polls;
    if ((ctrl & kCtrlErr) != 0) throw_microcode_fault(name_, gpp_.now());
    if ((ctrl & kCtrlDone) != 0) break;
    if (gpp_.now() - t0 >= timeout) {
      throw SimError("OcpDriver(" + name_ +
                     ")::wait_done_poll: no completion within " +
                     std::to_string(timeout) + " cycles (started cycle " +
                     std::to_string(t0) + ", now cycle " +
                     std::to_string(gpp_.now()) + ")");
    }
    gpp_.spend(poll_gap);
  }
  clear_done();
  return polls;
}

void OcpDriver::wait_done_irq(u64 timeout) {
  try {
    gpp_.wait_for_irq(irq_, timeout);
  } catch (const SimError&) {
    // Identify the coprocessor and the deadline that actually expired
    // (the kernel's wait_for_irq message knows neither).
    throw SimError("OcpDriver(" + name_ +
                   ")::wait_done_irq: no interrupt within " +
                   std::to_string(timeout) + " cycles (gave up at cycle " +
                   std::to_string(gpp_.now()) + ")");
  }
  if ((read_ctrl() & kCtrlErr) != 0) throw_microcode_fault(name_, gpp_.now());
  clear_done();
}

void OcpDriver::soft_reset(u64 settle) {
  gpp_.write32(base_ + core::kRegCtrl, kCtrlRst | shadow());
  const Cycle t0 = gpp_.now();
  constexpr u32 kStatusBits = kCtrlBusy | kCtrlDone | kCtrlErr | kCtrlProg;
  while ((read_ctrl() & kStatusBits) != 0) {
    if (gpp_.now() - t0 >= settle) {
      throw SimError("OcpDriver(" + name_ +
                     ")::soft_reset: status bits still set after " +
                     std::to_string(settle) + " cycles");
    }
    gpp_.spend(4);
  }
}

void OcpDriver::state(snap::Fields& f) {
  f.field("ie", ie_);
  f.field("chain", chain_);
}

}  // namespace ouessant::drv
