#include "l3/core.hpp"

namespace ouessant::l3 {

Cpu::Cpu(sim::Kernel& kernel, std::string name, mem::Sram& sram,
         bus::InterconnectModel& bus, CpuConfig cfg)
    : sim::Component(kernel, std::move(name)), sram_(sram), cfg_(cfg) {
  port_ = &bus.connect_master(this->name() + ".mmio", cfg_.bus_priority);
  port_->wake_on_complete(*this);  // ends the bus_wait_ gate
  pc_ = cfg_.reset_pc;
  halted_ = false;
}

bool Cpu::is_cached(Addr addr) const {
  return addr >= sram_.base() && addr - sram_.base() < sram_.size_bytes();
}

void Cpu::set_reg(u32 n, u32 v) {
  if (n == 0) return;
  regs_.at(n) = v;
}

void Cpu::set_pc(Addr pc) {
  if (pc % 4 != 0) throw SimError("l3::Cpu: unaligned pc");
  pc_ = pc;
}

void Cpu::restart(Addr pc) {
  set_pc(pc);
  halted_ = false;
  wfi_ = false;
  stall_ = 0;
  bus_wait_ = false;
  wake();  // a halted core is quiescent; resume ticking
}

void Cpu::fault(const std::string& why) {
  throw SimError("l3::Cpu " + name() + " @pc=" + hex(pc_) + ": " + why);
}

void Cpu::tick_compute() {
  // Cycles skipped while clock-gated belong to the wait state we slept
  // in (wfi or bus_wait; a halted core counts nothing) — the state is
  // unchanged since we went quiescent, because only a tick changes it.
  const u64 skipped = pending_credit();
  next_expected_tick_ = kernel().now() + 1;
  if (halted_) return;
  if (wfi_) {
    stats_.wfi_cycles += skipped;
    if (irq_ != nullptr && irq_->raised()) {
      wfi_ = false;  // wake; the next tick fetches the next instruction
    } else {
      ++stats_.wfi_cycles;
    }
    return;
  }
  if (bus_wait_) stats_.cycles_busy += skipped;
  ++stats_.cycles_busy;

  if (bus_wait_) {
    if (port_->busy()) return;
    if (bus_is_load_) set_reg(bus_rd_, port_->rdata0());
    bus_wait_ = false;
    return;  // completion consumes the cycle
  }
  if (stall_ > 0) {
    --stall_;
    return;
  }

  if (!is_cached(pc_)) fault("instruction fetch outside SRAM");
  const auto decoded = decode(sram_.peek(pc_));
  if (!decoded) fault("illegal instruction");
  ++stats_.instructions;
  execute(*decoded);
}

void Cpu::execute(const Instr& ins) {
  const L3Costs& c = cfg_.costs;
  const u32 a = regs_[ins.rs1];
  const u32 b = regs_[ins.rs2];
  const i32 sa = static_cast<i32>(a);
  const i32 sb = static_cast<i32>(b);
  const u32 zimm = static_cast<u32>(ins.imm) & 0x3FFFu;  // logical imms
  Addr next_pc = pc_ + 4;
  u32 cost = c.alu;

  switch (ins.op) {
    case Op::kAdd: set_reg(ins.rd, a + b); break;
    case Op::kSub: set_reg(ins.rd, a - b); break;
    case Op::kAnd: set_reg(ins.rd, a & b); break;
    case Op::kOr: set_reg(ins.rd, a | b); break;
    case Op::kXor: set_reg(ins.rd, a ^ b); break;
    case Op::kSll: set_reg(ins.rd, a << (b & 31)); break;
    case Op::kSrl: set_reg(ins.rd, a >> (b & 31)); break;
    case Op::kSra: set_reg(ins.rd, static_cast<u32>(sa >> (b & 31))); break;
    case Op::kMul:
      set_reg(ins.rd, static_cast<u32>(sa * static_cast<i64>(sb)));
      cost = c.mul;
      break;
    case Op::kDiv:
      if (sb == 0) fault("division by zero");
      set_reg(ins.rd, static_cast<u32>(sa / sb));
      cost = c.div;
      break;
    case Op::kSltu: set_reg(ins.rd, a < b ? 1 : 0); break;

    case Op::kAddi: set_reg(ins.rd, a + static_cast<u32>(ins.imm)); break;
    case Op::kAndi: set_reg(ins.rd, a & zimm); break;
    case Op::kOri: set_reg(ins.rd, a | zimm); break;
    case Op::kXori: set_reg(ins.rd, a ^ zimm); break;
    case Op::kSlli: set_reg(ins.rd, a << (ins.imm & 31)); break;
    case Op::kSrli: set_reg(ins.rd, a >> (ins.imm & 31)); break;
    case Op::kSrai:
      set_reg(ins.rd, static_cast<u32>(sa >> (ins.imm & 31)));
      break;
    case Op::kLui:
      set_reg(ins.rd, static_cast<u32>(ins.imm) << 14);
      break;

    case Op::kLw: {
      const Addr addr = a + static_cast<u32>(ins.imm);
      if (addr % 4 != 0) fault("unaligned load");
      ++stats_.loads;
      if (is_cached(addr)) {
        set_reg(ins.rd, sram_.peek(addr));
        cost = c.load;
      } else {
        ++stats_.bus_accesses;
        port_->start_read(addr, 1);
        bus_wait_ = true;
        bus_is_load_ = true;
        bus_rd_ = ins.rd;
        cost = 1;  // issue cycle; the bus adds the rest
      }
      break;
    }
    case Op::kSw: {
      const Addr addr = a + static_cast<u32>(ins.imm);
      if (addr % 4 != 0) fault("unaligned store");
      ++stats_.stores;
      if (is_cached(addr)) {
        sram_.poke(addr, b);
        cost = c.store;
      } else {
        ++stats_.bus_accesses;
        port_->start_write(addr, {b});
        bus_wait_ = true;
        bus_is_load_ = false;
        cost = 1;
      }
      break;
    }

    case Op::kBeq: case Op::kBne: case Op::kBlt: case Op::kBge: {
      bool taken = false;
      switch (ins.op) {
        case Op::kBeq: taken = (a == b); break;
        case Op::kBne: taken = (a != b); break;
        case Op::kBlt: taken = (sa < sb); break;
        case Op::kBge: taken = (sa >= sb); break;
        default: break;
      }
      if (taken) {
        next_pc = pc_ + 4 + static_cast<u32>(ins.imm * 4);
        cost = c.branch_taken;
        ++stats_.branches_taken;
      } else {
        cost = c.branch_not_taken;
      }
      break;
    }
    case Op::kJal:
      set_reg(ins.rd, pc_ + 4);
      next_pc = pc_ + 4 + static_cast<u32>(ins.imm * 4);
      cost = c.jump;
      break;
    case Op::kJr:
      next_pc = a;
      cost = c.jump;
      break;

    case Op::kNop:
      break;
    case Op::kHalt:
      halted_ = true;
      break;
    case Op::kWfi:
      if (irq_ == nullptr) fault("wfi with no interrupt line attached");
      wfi_ = true;
      break;
  }

  pc_ = next_pc;
  stall_ = cost - 1;  // this tick was the first cycle
}

}  // namespace ouessant::l3
