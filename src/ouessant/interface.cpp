#include "ouessant/interface.hpp"

#include <algorithm>

#include "ouessant/isa.hpp"

namespace ouessant::core {

BusInterface::BusInterface(std::string name, Addr base,
                           bus::BusMasterPort& master)
    : name_(std::move(name)), base_(base), master_(master) {
  if (base % 4 != 0) {
    throw ConfigError("BusInterface " + name_ + ": unaligned base");
  }
}

u32 BusInterface::reg_index(Addr addr, const char* what) const {
  if (addr < base_ || addr - base_ >= kRegSpanBytes || addr % 4 != 0) {
    throw SimError("BusInterface " + name_ + ": bad register " + what +
                   " at " + hex(addr));
  }
  return (addr - base_) / 4;
}

u32 BusInterface::read_ctrl() const {
  u32 v = 0;
  if (start_pending_) v |= kCtrlStart;
  if (ie_) v |= kCtrlIe;
  if (done_) v |= kCtrlDone;
  if (running_) v |= kCtrlBusy;
  if (error_) v |= kCtrlErr;
  if (progress_) v |= kCtrlProg;
  if (chain_) v |= kCtrlChain;
  return v;
}

void BusInterface::write_ctrl(u32 value) {
  ie_ = (value & kCtrlIe) != 0;
  // CHAIN is level-sensitive configuration, re-derived (like IE) on
  // every control write: drivers must OR it into read-modify-write
  // sequences. Edges notify the bound link so a gated ChainLink wakes.
  const bool chain = (value & kCtrlChain) != 0;
  if (chain != chain_) {
    chain_ = chain;
    if (chain_listener_) chain_listener_(chain_);
  }
  if ((value & kCtrlRst) != 0) {
    // Soft reset: clear every status bit and latch the pulse for the
    // controller, which performs the actual abort (bus transaction,
    // FIFOs, RAC) on its next tick. Banks/prog_size survive.
    reset_pending_ = true;
    start_pending_ = false;
    done_ = false;
    error_ = false;
    progress_ = false;
    irq_.clear();
    if (start_waiter_ != nullptr) start_waiter_->wake();
  }
  if ((value & kCtrlDone) != 0) {  // W1C
    done_ = false;
    irq_.clear();
  }
  if ((value & kCtrlErr) != 0) {  // W1C
    error_ = false;
  }
  if ((value & kCtrlProg) != 0) {  // W1C
    progress_ = false;
    if (!done_) irq_.clear();
  }
  if ((value & kCtrlStart) != 0 && !running_) {
    start_pending_ = true;
    if (start_waiter_ != nullptr) start_waiter_->wake();
  }
}

bus::SlaveResponse BusInterface::read_word(Addr addr) {
  const u32 idx = reg_index(addr, "read");
  u32 v = 0;
  switch (idx) {
    case 0: v = read_ctrl(); break;
    case 1: v = prog_size_; break;
    default: v = banks_[idx - 2]; break;
  }
  return {.data = v, .wait_states = 0};
}

u32 BusInterface::write_word(Addr addr, u32 data) {
  const u32 idx = reg_index(addr, "write");
  switch (idx) {
    case 0:
      write_ctrl(data);
      break;
    case 1:
      prog_size_ = data;
      break;
    default:
      if (data % 4 != 0) {
        throw SimError("BusInterface " + name_ + ": bank " +
                       std::to_string(idx - 2) + " base must be word aligned");
      }
      banks_[idx - 2] = data;
      break;
  }
  return 0;
}

Addr BusInterface::translate(u8 bank, u32 word_offset) const {
  if (bank >= kNumBankRegs) {
    throw SimError("BusInterface " + name_ + ": bank id out of range");
  }
  return banks_[bank] + word_offset * 4;
}

void BusInterface::preconfigure(const std::array<u32, kNumBankRegs>& banks,
                                u32 prog_size) {
  for (u32 b : banks) {
    if (b % 4 != 0) {
      throw ConfigError("BusInterface " + name_ +
                        ": preconfigured bank base must be word aligned");
    }
  }
  banks_ = banks;
  prog_size_ = prog_size;
}

void BusInterface::set_standalone(bool autostart, bool auto_restart) {
  autostart_armed_ = autostart;
  auto_restart_ = auto_restart;
  if (autostart && start_waiter_ != nullptr) start_waiter_->wake();
}

void BusInterface::ack_start() {
  start_pending_ = false;
  if (!auto_restart_) autostart_armed_ = false;
}

void BusInterface::signal_done() {
  done_ = true;
  if (ie_) irq_.raise();
}

void BusInterface::signal_error() {
  error_ = true;
  if (ie_) irq_.raise();
}

void BusInterface::signal_progress() {
  progress_ = true;
  if (ie_) irq_.raise();
}

res::ResourceNode BusInterface::resource_tree() const {
  // Fig. 3 datapath: 10x32b register file, bank-select mux, 32-bit
  // offset adder, slave FSM, master FSM, config data multiplexer.
  res::ResourceNode n{.name = name_, .self = {}, .children = {}};
  res::ResourceEstimate regs;
  regs += res::est_register(10 * 32);
  res::ResourceEstimate xlate;
  xlate += res::est_mux(kNumBankRegs, 32);  // bank select
  xlate += res::est_adder(32);              // base + offset
  res::ResourceEstimate fsms;
  fsms += res::est_fsm(4, 12);   // bus slave FSM
  fsms += res::est_fsm(6, 16);   // bus master FSM (burst sequencing)
  fsms += res::est_mux(10, 32);  // cfg data multiplexer (register readback)
  fsms += res::est_register(32 + 14 + 4);  // address/burst staging
  n.children.push_back({"config_regs", regs, {}});
  n.children.push_back({"translation", xlate, {}});
  n.children.push_back({"bus_fsms", fsms, {}});
  return n;
}

void BusInterface::state(snap::Fields& f) {
  f.field("banks", std::span(banks_));
  f.field("prog_size", prog_size_);
  f.field("ie", ie_);
  f.field("start_pending", start_pending_);
  f.field("reset_pending", reset_pending_);
  f.field("autostart_armed", autostart_armed_);
  f.field("auto_restart", auto_restart_);
  f.field("running", running_);
  f.field("chain", chain_);
  f.field("done", done_);
  f.field("error", error_);
  f.field("progress", progress_);
  bool irq_level = irq_.raised();
  f.field("irq_level", irq_level);
  if (f.restoring()) irq_.restore_level(irq_level);
}

}  // namespace ouessant::core
