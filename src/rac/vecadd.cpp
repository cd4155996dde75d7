#include "rac/vecadd.hpp"

namespace ouessant::rac {

VecAddRac::VecAddRac(sim::Kernel& kernel, std::string name, u32 block_len)
    : core::Rac(kernel, std::move(name)), block_len_(block_len) {
  if (block_len_ == 0) {
    throw ConfigError("VecAddRac " + this->name() + ": zero block length");
  }
}

std::vector<core::Rac::FifoSpec> VecAddRac::input_specs() const {
  const u32 cap = std::max(block_len_, 64u) * 32;
  return {{.rac_width = 32, .capacity_bits = cap},
          {.rac_width = 32, .capacity_bits = cap}};
}

std::vector<core::Rac::FifoSpec> VecAddRac::output_specs() const {
  return {{.rac_width = 32, .capacity_bits = std::max(block_len_, 64u) * 32}};
}

void VecAddRac::bind(std::vector<fifo::WidthFifo*> in,
                     std::vector<fifo::WidthFifo*> out) {
  if (in.size() != 2 || out.size() != 1) {
    throw ConfigError("VecAddRac " + name() + ": expects 2 in / 1 out FIFO");
  }
  a_ = in[0];
  b_ = in[1];
  out_ = out[0];
  a_->add_waiter(*this);
  b_->add_waiter(*this);
  out_->add_waiter(*this);
}

void VecAddRac::start() {
  if (a_ == nullptr) throw SimError("VecAddRac " + name() + ": start before bind");
  if (busy_) throw SimError("VecAddRac " + name() + ": start_op while busy");
  busy_ = true;
  note_start_op();
  remaining_ = block_len_;
  wake();
}

void VecAddRac::tick_compute() {
  if (!busy_) return;
  // Lock-step consumption: one element per cycle when both operands are
  // present and the result FIFO has room.
  if (remaining_ > 0 && !a_->empty() && !b_->empty() && !out_->full()) {
    const i64 sum = static_cast<i64>(util::from_word(static_cast<u32>(a_->read()))) +
                    util::from_word(static_cast<u32>(b_->read()));
    out_->write(static_cast<u32>(
        util::to_word(static_cast<i32>(util::saturate(sum, 32)))));
    --remaining_;
    if (remaining_ == 0) {
      busy_ = false;  // end_op
      ++completed_;
      notify_end_op();
    }
  }
}

res::ResourceNode VecAddRac::resource_tree() const {
  res::ResourceEstimate e;
  e += res::est_adder(33);
  e += res::est_register(33);
  e += res::est_fsm(3, 4);
  e += res::est_register(ceil_log2(block_len_ + 1));
  return {.name = name(), .self = e, .children = {}};
}

void VecAddRac::state(snap::Fields& f) {
  Rac::state(f);
  f.field("busy", busy_);
  f.field("remaining", remaining_);
  f.field("completed", completed_);
}

}  // namespace ouessant::rac
