#include "fault/injector.hpp"

#include "bus/interconnect.hpp"
#include "ouessant/controller.hpp"

namespace ouessant::fault {

namespace {

/// Decorrelate the per-spec streams: spec i draws from
/// Rng(seed + (i+1) * golden-ratio increment) — the SplitMix64 constant,
/// so adjacent specs land in unrelated parts of the sequence.
u64 spec_seed(u64 plan_seed, std::size_t index) {
  return plan_seed + (index + 1) * 0x9E37'79B9'7F4A'7C15ull;
}

}  // namespace

/// Per-OCP adapter for the controller hooks: resolves this OCP's index,
/// then XORs the spec's bit into the word when a spec fires.
struct OcpSite : OcpFaultHook {
  OcpSite(Injector& inj, int idx) : inj_(inj), idx_(idx) {}

  u32 corrupt_fetch(u32 ir, u32 pc, Cycle now) override {
    (void)pc;
    const FaultSpec* spec = inj_.decide(FaultKind::kCtrlFlip, idx_, now);
    return spec != nullptr ? ir ^ (1u << spec->bit) : ir;
  }

  u32 corrupt_output(u32 word, Cycle now) override {
    const FaultSpec* spec = inj_.decide(FaultKind::kFifoCorrupt, idx_, now);
    return spec != nullptr ? word ^ (1u << spec->bit) : word;
  }

 private:
  Injector& inj_;
  int idx_;
};

struct RacSite : RacFaultHook {
  RacSite(Injector& inj, int idx) : inj_(inj), idx_(idx) {}

  bool swallow_end_op(Cycle now) override {
    return inj_.decide(FaultKind::kRacHang, idx_, now) != nullptr;
  }

 private:
  Injector& inj_;
  int idx_;
};

Injector::Injector(FaultPlan plan) : plan_(std::move(plan)) {
  state_.reserve(plan_.specs.size());
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    state_.push_back(SpecState{0, util::Rng(spec_seed(plan_.seed, i))});
  }
}

void Injector::arm_bus(bus::InterconnectModel& bus) {
  bus.set_fault_hook(this);
}

void Injector::arm_ocp(u32 index, core::Ocp& ocp) {
  if (master_names_.size() <= index) master_names_.resize(index + 1);
  master_names_[index] = ocp.iface().master().name();
  ocp_sites_.push_back(
      std::make_unique<OcpSite>(*this, static_cast<int>(index)));
  ocp.controller().set_fault_hook(ocp_sites_.back().get());
  rac_sites_.push_back(
      std::make_unique<RacSite>(*this, static_cast<int>(index)));
  ocp.rac().set_fault_hook(rac_sites_.back().get());
}

void Injector::arm_irq(cpu::IrqController& ctl) { ctl.set_fault_hook(this); }

bool Injector::beat_error(const std::string& master, Addr addr, bool write,
                          Cycle now) {
  (void)addr;
  (void)write;
  // Only beats mastered by an armed OCP are candidates — the CPU's own
  // MMIO must stay reliable or nothing could even read the ERR bit.
  int target = -1;
  for (std::size_t i = 0; i < master_names_.size(); ++i) {
    if (master_names_[i] == master) {
      target = static_cast<int>(i);
      break;
    }
  }
  if (target < 0) return false;
  return decide(FaultKind::kBusError, target, now) != nullptr;
}

bool Injector::drop_assertion(u32 src, Cycle now) {
  return decide(FaultKind::kIrqDrop, static_cast<int>(src), now) != nullptr;
}

void Injector::state(snap::Fields& f) {
  f.expect<u32>("specs", state_.size());
  for (SpecState& st : state_) {
    f.field("fired", st.fired);
    auto s = st.rng.state();
    f.field("rng", std::span(s));
    if (f.restoring()) st.rng.restore_state(s);
  }
  f.list("log_count", log_, [this, &f](Record& rec) {
    f.field("cycle", rec.cycle);
    f.field_as<u8>("kind", rec.kind, FaultKind::kIrqDrop);
    f.field_as<u32>("ocp", rec.ocp);
    f.field("spec_index", rec.spec_index);
    // The spec count matched, but a record names the plan that fired
    // it: another plan's image would resume its streams under this one.
    if (rec.spec_index >= plan_.specs.size() ||
        plan_.specs[rec.spec_index].kind != rec.kind) {
      f.fail("'spec_index' " + std::to_string(rec.spec_index) +
             " names no " + kind_name(rec.kind) + " spec of this plan");
    }
  });
}

const FaultSpec* Injector::decide(FaultKind kind, int target, Cycle now) {
  for (std::size_t i = 0; i < plan_.specs.size(); ++i) {
    const FaultSpec& spec = plan_.specs[i];
    if (spec.kind != kind) continue;
    if (spec.ocp >= 0 && spec.ocp != target) continue;
    SpecState& st = state_[i];
    if (st.fired >= spec.budget()) continue;
    bool fire = false;
    if (spec.at > 0) {
      fire = now >= spec.at;
    } else {
      // The draw happens on every eligible opportunity, fired or not —
      // the stream position depends only on the opportunity sequence.
      fire = st.rng.chance(spec.prob);
    }
    if (!fire) continue;
    ++st.fired;
    log_.push_back(Record{.cycle = now,
                          .kind = kind,
                          .ocp = target,
                          .spec_index = static_cast<u32>(i)});
    return &spec;
  }
  return nullptr;
}

}  // namespace ouessant::fault
