#include "rac/fir.hpp"

#include <algorithm>

namespace ouessant::rac {

FirRac::FirRac(sim::Kernel& kernel, std::string name,
               std::vector<i32> taps_q16, u32 block_len)
    : core::Rac(kernel, std::move(name)),
      taps_(std::move(taps_q16)),
      block_len_(block_len) {
  if (taps_.empty()) {
    throw ConfigError("FirRac " + this->name() + ": needs at least one tap");
  }
  if (block_len_ == 0) {
    throw ConfigError("FirRac " + this->name() + ": zero block length");
  }
  delay_.assign(taps_.size(), 0);
}

std::vector<core::Rac::FifoSpec> FirRac::input_specs() const {
  return {{.rac_width = 32, .capacity_bits = std::max<u32>(block_len_, 64) * 32}};
}

std::vector<core::Rac::FifoSpec> FirRac::output_specs() const {
  return {{.rac_width = 32, .capacity_bits = std::max<u32>(block_len_, 64) * 32}};
}

void FirRac::bind(std::vector<fifo::WidthFifo*> in,
                  std::vector<fifo::WidthFifo*> out) {
  if (in.size() != 1 || out.size() != 1) {
    throw ConfigError("FirRac " + name() + ": expects 1 in / 1 out FIFO");
  }
  in_ = in[0];
  out_ = out[0];
  in_->add_waiter(*this);
  out_->add_waiter(*this);
}

void FirRac::start() {
  if (in_ == nullptr) throw SimError("FirRac " + name() + ": start before bind");
  if (busy_) throw SimError("FirRac " + name() + ": start_op while busy");
  busy_ = true;
  note_start_op();
  remaining_ = block_len_;
  std::fill(delay_.begin(), delay_.end(), 0);
  wake();
}

i32 FirRac::step(i32 x) {
  // Shift in the new sample.
  for (std::size_t k = delay_.size() - 1; k > 0; --k) delay_[k] = delay_[k - 1];
  delay_[0] = x;
  // Transversal MAC with a single rounding at the end (wide accumulator,
  // as the DSP cascade would do).
  i64 acc = 0;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += static_cast<i64>(taps_[k]) * delay_[k];
  }
  acc += i64{1} << 15;
  return static_cast<i32>(util::saturate(acc >> 16, 32));
}

void FirRac::tick_compute() {
  if (!busy_) return;
  // One sample per cycle when both FIFOs are willing.
  if (remaining_ > 0 && !in_->empty() && !out_->full()) {
    const i32 x = util::from_word(static_cast<u32>(in_->read()));
    out_->write(static_cast<u32>(util::to_word(step(x))));
    --remaining_;
    if (remaining_ == 0) {
      busy_ = false;  // end_op
      ++completed_;
      notify_end_op();
    }
  }
}

std::vector<i32> FirRac::filter_reference(const std::vector<i32>& taps_q16,
                                          const std::vector<i32>& x) {
  std::vector<i32> y;
  y.reserve(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    i64 acc = 0;
    for (std::size_t k = 0; k < taps_q16.size(); ++k) {
      if (i >= k) acc += static_cast<i64>(taps_q16[k]) * x[i - k];
    }
    acc += i64{1} << 15;
    y.push_back(static_cast<i32>(util::saturate(acc >> 16, 32)));
  }
  return y;
}

res::ResourceNode FirRac::resource_tree() const {
  res::ResourceNode n{.name = name(), .self = {}, .children = {}};
  res::ResourceEstimate e;
  const u32 t = static_cast<u32>(taps_.size());
  for (u32 k = 0; k < t; ++k) e += res::est_multiplier(18);
  e += res::est_register(32 * t);  // delay line
  e += res::est_adder(40 * (t - 1 == 0 ? 1 : t - 1));
  e += res::est_fsm(3, 6);
  n.children.push_back({"transversal_datapath", e, {}});
  return n;
}

void FirRac::state(snap::Fields& f) {
  Rac::state(f);
  f.field("busy", busy_);
  f.field("remaining", remaining_);
  f.field("delay", std::span(delay_));
  f.field("completed", completed_);
}

}  // namespace ouessant::rac
