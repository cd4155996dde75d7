#include "rac/block_rac.hpp"

namespace ouessant::rac {

BlockRac::BlockRac(sim::Kernel& kernel, std::string name, Shape shape)
    : core::Rac(kernel, std::move(name)), shape_(shape) {
  if (shape_.in_chunks == 0 || shape_.out_chunks == 0) {
    throw ConfigError("BlockRac " + this->name() + ": zero-sized block");
  }
  if (shape_.in_width == 0 || shape_.in_width > 64 || shape_.out_width == 0 ||
      shape_.out_width > 64) {
    throw ConfigError("BlockRac " + this->name() + ": chunk width 1..64");
  }
}

std::vector<core::Rac::FifoSpec> BlockRac::input_specs() const {
  return {{.rac_width = shape_.in_width,
           .capacity_bits = shape_.in_capacity_bits}};
}

std::vector<core::Rac::FifoSpec> BlockRac::output_specs() const {
  return {{.rac_width = shape_.out_width,
           .capacity_bits = shape_.out_capacity_bits}};
}

void BlockRac::bind(std::vector<fifo::WidthFifo*> in,
                    std::vector<fifo::WidthFifo*> out) {
  if (in.size() != 1 || out.size() != 1) {
    throw ConfigError("BlockRac " + name() + ": expects 1 in / 1 out FIFO");
  }
  in_ = in[0];
  out_ = out[0];
  // A FIFO edge is what unblocks kCollect (input arrives) and kEmit
  // (output space frees up) — subscribe so those edges un-gate us.
  in_->add_waiter(*this);
  out_->add_waiter(*this);
}

bool BlockRac::is_quiescent() const {
  switch (phase_) {
    case Phase::kIdle:
      return true;  // start() wakes us
    case Phase::kCollect:
      return in_->empty();  // input FIFO commit wakes us
    case Phase::kCompute:
      return true;  // wake_at(end of countdown) armed on entry
    case Phase::kEmit:
      return out_->full();  // output FIFO commit wakes us
  }
  return false;
}

void BlockRac::start() {
  if (in_ == nullptr) {
    throw SimError("BlockRac " + name() + ": start before bind");
  }
  if (busy_) {
    throw SimError("BlockRac " + name() +
                   ": start_op while busy (microcode bug: exec/execs "
                   "issued before the previous operation ended)");
  }
  busy_ = true;
  note_start_op();
  phase_ = Phase::kCollect;
  in_buf_.clear();
  out_buf_.clear();
  emit_index_ = 0;
  wake();
}

void BlockRac::abort_op() {
  core::Rac::abort_op();  // close the open busy window, clear hung_
  phase_ = Phase::kIdle;
  busy_ = false;
  in_buf_.clear();
  out_buf_.clear();
  emit_index_ = 0;
  compute_left_ = 0;
}

void BlockRac::state(snap::Fields& f) {
  Rac::state(f);
  f.field_as<u8>("phase", phase_, Phase::kEmit);
  f.field("busy", busy_);
  f.field("in_buf", in_buf_);
  f.field("out_buf", out_buf_);
  f.field_as<u64>("emit_index", emit_index_);
  f.field("compute_left", compute_left_);
  f.field("completed", completed_);
  f.field("next_expected_tick", next_expected_tick_);
}

void BlockRac::tick_compute() {
  // Cycles skipped while clock-gated. Only the kCompute countdown has
  // per-cycle state; the other phases' wait ticks are pure no-ops.
  const Cycle now = kernel().now();
  const u64 skipped =
      now > next_expected_tick_ ? now - next_expected_tick_ : 0;
  next_expected_tick_ = now + 1;
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kCollect:
      if (!in_->empty()) {
        in_buf_.push_back(in_->read());
        if (in_buf_.size() == shape_.in_chunks) {
          out_buf_ = compute(in_buf_);
          if (out_buf_.size() != shape_.out_chunks) {
            throw SimError("BlockRac " + name() +
                           ": compute() produced wrong chunk count");
          }
          compute_left_ = shape_.compute_cycles;
          phase_ = (compute_left_ == 0) ? Phase::kEmit : Phase::kCompute;
          // The countdown ends compute_left_ ticks from now; sleep
          // through it. Skipped decrements are credited above on wake.
          if (compute_left_ > 0) wake_at(now + compute_left_);
        }
      }
      break;
    case Phase::kCompute:
      compute_left_ -= static_cast<u32>(skipped);
      if (--compute_left_ == 0) phase_ = Phase::kEmit;
      break;
    case Phase::kEmit:
      if (!out_->full()) {
        out_->write(out_buf_[emit_index_++]);
        if (emit_index_ == out_buf_.size()) {
          phase_ = Phase::kIdle;
          busy_ = false;  // end_op
          ++completed_;
          notify_end_op();
        }
      }
      break;
  }
}

}  // namespace ouessant::rac
