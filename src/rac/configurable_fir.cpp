#include "rac/configurable_fir.hpp"

#include <algorithm>

namespace ouessant::rac {

ConfigurableFirRac::ConfigurableFirRac(sim::Kernel& kernel, std::string name,
                                       u32 taps_n, u32 block_len)
    : core::Rac(kernel, std::move(name)),
      taps_n_(taps_n),
      block_len_(block_len),
      taps_(taps_n, 0),
      delay_(taps_n, 0) {
  if (taps_n_ == 0 || block_len_ == 0) {
    throw ConfigError("ConfigurableFirRac " + this->name() +
                      ": zero taps or block length");
  }
}

std::vector<core::Rac::FifoSpec> ConfigurableFirRac::input_specs() const {
  return {
      {.rac_width = 32, .capacity_bits = std::max(block_len_, 64u) * 32},
      {.rac_width = 32, .capacity_bits = std::max(taps_n_ * 2, 64u) * 32},
  };
}

std::vector<core::Rac::FifoSpec> ConfigurableFirRac::output_specs() const {
  return {{.rac_width = 32, .capacity_bits = std::max(block_len_, 64u) * 32}};
}

void ConfigurableFirRac::bind(std::vector<fifo::WidthFifo*> in,
                              std::vector<fifo::WidthFifo*> out) {
  if (in.size() != 2 || out.size() != 1) {
    throw ConfigError("ConfigurableFirRac " + name() +
                      ": expects 2 in (data, cfg) / 1 out FIFO");
  }
  data_in_ = in[0];
  cfg_in_ = in[1];
  out_ = out[0];
  data_in_->add_waiter(*this);
  cfg_in_->add_waiter(*this);
  out_->add_waiter(*this);
}

void ConfigurableFirRac::start() {
  if (data_in_ == nullptr) {
    throw SimError("ConfigurableFirRac " + name() + ": start before bind");
  }
  if (busy_) {
    throw SimError("ConfigurableFirRac " + name() + ": start_op while busy");
  }
  busy_ = true;
  note_start_op();
  remaining_ = block_len_;
  std::fill(delay_.begin(), delay_.end(), 0);
  // A complete coefficient set waiting in the config FIFO triggers a
  // reload; otherwise the previous configuration is kept.
  if (cfg_in_->level_bits() >= taps_n_ * 32) {
    phase_ = Phase::kLoadTaps;
    taps_loaded_ = 0;
    ++reconfigs_;
  } else {
    phase_ = Phase::kStream;
  }
  wake();
}

i32 ConfigurableFirRac::step(i32 x) {
  for (std::size_t k = delay_.size() - 1; k > 0; --k) delay_[k] = delay_[k - 1];
  delay_[0] = x;
  i64 acc = 0;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += static_cast<i64>(taps_[k]) * delay_[k];
  }
  acc += i64{1} << 15;
  return static_cast<i32>(util::saturate(acc >> 16, 32));
}

void ConfigurableFirRac::tick_compute() {
  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kLoadTaps:
      if (!cfg_in_->empty()) {
        taps_[taps_loaded_++] =
            util::from_word(static_cast<u32>(cfg_in_->read()));
        if (taps_loaded_ == taps_n_) phase_ = Phase::kStream;
      }
      break;
    case Phase::kStream:
      if (remaining_ > 0 && !data_in_->empty() && !out_->full()) {
        const i32 x = util::from_word(static_cast<u32>(data_in_->read()));
        out_->write(static_cast<u32>(util::to_word(step(x))));
        --remaining_;
        if (remaining_ == 0) {
          phase_ = Phase::kIdle;
          busy_ = false;  // end_op
          ++completed_;
          notify_end_op();
        }
      }
      break;
  }
}

res::ResourceNode ConfigurableFirRac::resource_tree() const {
  res::ResourceNode n{.name = name(), .self = {}, .children = {}};
  res::ResourceEstimate e;
  for (u32 k = 0; k < taps_n_; ++k) e += res::est_multiplier(18);
  e += res::est_register(32 * taps_n_ * 2);  // delay line + coefficient bank
  e += res::est_adder(40 * std::max(taps_n_ - 1, 1u));
  e += res::est_fsm(4, 8);
  n.children.push_back({"reloadable_datapath", e, {}});
  return n;
}

void ConfigurableFirRac::state(snap::Fields& f) {
  Rac::state(f);
  f.field_as<u8>("phase", phase_, Phase::kStream);
  f.field("busy", busy_);
  f.field("taps_loaded", taps_loaded_);
  f.field("remaining", remaining_);
  f.field("completed", completed_);
  f.field("reconfigs", reconfigs_);
  // Taps and delay line travel as one words32 field.
  std::vector<u32> words(taps_.begin(), taps_.end());
  words.insert(words.end(), delay_.begin(), delay_.end());
  f.field("taps_and_delay", words);
  if (f.restoring()) {
    if (words.size() != taps_.size() + delay_.size()) {
      f.fail("taps/delay length mismatch");
    }
    const auto tail =
        words.begin() + static_cast<std::ptrdiff_t>(taps_.size());
    std::copy(words.begin(), tail, taps_.begin());
    std::copy(tail, words.end(), delay_.begin());
  }
}

}  // namespace ouessant::rac
