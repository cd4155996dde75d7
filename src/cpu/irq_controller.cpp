#include "cpu/irq_controller.hpp"

#include <bit>

#include "snap/state.hpp"

namespace ouessant::cpu {

IrqController::IrqController(sim::Kernel& kernel, std::string name,
                             Addr base)
    : sim::Component(kernel, std::move(name)), base_(base) {}

u32 IrqController::attach(const IrqLine& line) {
  if (sources_.size() >= kIrqCtlMaxSources) {
    throw ConfigError("IrqController " + name() + ": too many sources");
  }
  sources_.push_back(&line);
  line.watch(*this);  // any edge on the source must un-gate the sampler
  return static_cast<u32>(sources_.size() - 1);
}

u32 IrqController::sample_sources() const {
  u32 p = 0;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    if (sources_[i]->raised()) p |= 1u << i;
  }
  return p;
}

bool IrqController::is_quiescent() const {
  u32 p = sample_sources();
  if (fault_hook_ != nullptr) {
    // An unsampled edge needs a tick (the tick consults the hook; doing
    // it here would burn the hook's RNG outside the deterministic tick
    // order). Settled sources just apply the recorded suppression.
    if (p != prev_raw_) return false;
    p &= ~suppressed_;
  }
  if (p != pending_) return false;
  return cpu_line_.raised() == ((pending_ & mask_) != 0);
}

void IrqController::tick_compute() {
  u32 p = sample_sources();
  if (fault_hook_ != nullptr) {
    u32 rising = p & ~prev_raw_;
    prev_raw_ = p;
    while (rising != 0) {
      const u32 src = static_cast<u32>(std::countr_zero(rising));
      rising &= rising - 1;
      if (fault_hook_->drop_assertion(src, kernel().now())) {
        suppressed_ |= 1u << src;
      }
    }
    suppressed_ &= p;  // a dropped edge lasts until the line falls
    p &= ~suppressed_;
  }
  pending_ = p;
  if ((pending_ & mask_) != 0) {
    cpu_line_.raise();
  } else {
    cpu_line_.clear();
  }
}

bus::SlaveResponse IrqController::read_word(Addr addr) {
  switch (addr - base_) {
    case kIrqCtlPending: return {.data = pending_, .wait_states = 0};
    case kIrqCtlMask: return {.data = mask_, .wait_states = 0};
    case kIrqCtlActive: return {.data = pending_ & mask_, .wait_states = 0};
    default:
      throw SimError("IrqController " + name() + ": bad read offset");
  }
}

u32 IrqController::write_word(Addr addr, u32 data) {
  switch (addr - base_) {
    case kIrqCtlMask:
      mask_ = data;
      wake();  // the output must re-evaluate under the new mask
      break;
    case kIrqCtlPending:
    case kIrqCtlActive:
      throw SimError("IrqController " + name() + ": register is read-only");
    default:
      throw SimError("IrqController " + name() + ": bad write offset");
  }
  return 0;
}

void IrqController::state(snap::Fields& f) {
  f.expect<u32>("sources", sources_.size());
  f.field("pending", pending_);
  f.field("mask", mask_);
  f.field("prev_raw", prev_raw_);
  f.field("suppressed", suppressed_);
  bool cpu_line = cpu_line_.raised();
  f.field("cpu_line", cpu_line);
  if (f.restoring()) cpu_line_.restore_level(cpu_line);
}

res::ResourceNode IrqController::resource_tree() const {
  res::ResourceEstimate e;
  e += res::est_register(kIrqCtlMaxSources * 2);  // pending + mask
  e += res::est_mux(3, 32);                       // readback mux
  e += res::est_comparator(kIrqCtlMaxSources);    // any-active reduce
  return {.name = name(), .self = e, .children = {}};
}

}  // namespace ouessant::cpu
