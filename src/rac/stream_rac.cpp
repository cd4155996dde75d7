#include "rac/stream_rac.hpp"

#include <algorithm>

namespace ouessant::rac {

StreamRac::StreamRac(sim::Kernel& kernel, std::string name, u32 block_len,
                     u32 streams, std::optional<FifoSpec> config)
    : core::Rac(kernel, std::move(name)),
      block_len_(block_len),
      streams_(streams),
      config_spec_(config) {
  if (block_len_ == 0) {
    throw ConfigError("StreamRac " + this->name() + ": zero block length");
  }
  if (streams_ == 0 || streams_ > kMaxStreams) {
    throw ConfigError("StreamRac " + this->name() + ": 1 or 2 data inputs");
  }
}

core::Rac::FifoSpec StreamRac::token_spec() const {
  return {.rac_width = 32, .capacity_bits = std::max(block_len_, 64u) * 32};
}

std::vector<core::Rac::FifoSpec> StreamRac::input_specs() const {
  std::vector<FifoSpec> specs(streams_, token_spec());
  if (config_spec_) specs.push_back(*config_spec_);
  return specs;
}

std::vector<core::Rac::FifoSpec> StreamRac::output_specs() const {
  return {token_spec()};
}

void StreamRac::bind(std::vector<fifo::WidthFifo*> in,
                     std::vector<fifo::WidthFifo*> out) {
  if (in.size() != input_specs().size() || out.size() != 1) {
    throw ConfigError("StreamRac " + name() + ": expects " +
                      std::to_string(input_specs().size()) +
                      " in / 1 out FIFO");
  }
  std::copy_n(in.begin(), streams_, in_.begin());
  if (config_spec_) config_ = in.back();
  out_ = out[0];
  // Every FIFO edge can unblock the core: subscribe to all of them.
  for (fifo::WidthFifo* f : in) f->add_waiter(*this);
  out_->add_waiter(*this);
}

void StreamRac::start() {
  if (out_ == nullptr) {
    throw SimError("StreamRac " + name() + ": start before bind");
  }
  if (busy_) throw SimError("StreamRac " + name() + ": start_op while busy");
  busy_ = true;
  note_start_op();
  remaining_ = block_len_;
  on_start();
  wake();
}

void StreamRac::abort_op() {
  core::Rac::abort_op();  // close the open busy window, clear hung_
  busy_ = false;
  remaining_ = 0;
}

bool StreamRac::is_quiescent() const {
  if (!busy_ || out_->full()) return true;
  for (u32 i = 0; i < streams_; ++i) {
    if (in_[i]->empty()) return true;
  }
  return false;
}

void StreamRac::tick_compute() {
  if (!busy_ || remaining_ == 0 || out_->full()) return;
  for (u32 i = 0; i < streams_; ++i) {
    if (in_[i]->empty()) return;
  }
  Tokens x{};
  for (u32 i = 0; i < streams_; ++i) x[i] = static_cast<u32>(in_[i]->read());
  out_->write(step(x));
  if (--remaining_ == 0) {
    busy_ = false;  // end_op
    ++completed_;
    notify_end_op();
  }
}

}  // namespace ouessant::rac
