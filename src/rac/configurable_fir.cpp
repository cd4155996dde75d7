#include "rac/configurable_fir.hpp"

#include <algorithm>

#include "rac/fir.hpp"

namespace ouessant::rac {

ConfigurableFirRac::ConfigurableFirRac(sim::Kernel& kernel, std::string name,
                                       u32 taps_n, u32 block_len)
    : StreamRac(kernel, std::move(name), block_len, 1,
                FifoSpec{.rac_width = 32,
                         .capacity_bits = std::max(taps_n * 2, 64u) * 32}),
      taps_n_(taps_n),
      taps_and_delay_(2 * std::size_t{taps_n}, 0) {
  if (taps_n_ == 0) {
    throw ConfigError("ConfigurableFirRac " + this->name() + ": zero taps");
  }
}

void ConfigurableFirRac::on_start() {
  std::fill(taps_and_delay_.begin() + taps_n_, taps_and_delay_.end(), 0);
  // A complete coefficient set waiting in the config FIFO triggers a
  // reload; otherwise the previous configuration is kept.
  if (config_fifo().level_bits() >= taps_n_ * 32) {
    loading_ = true;
    taps_loaded_ = 0;
    ++reconfigs_;
  }
}

void ConfigurableFirRac::abort_op() {
  StreamRac::abort_op();
  loading_ = false;
  taps_loaded_ = 0;
}

u32 ConfigurableFirRac::step(const Tokens& in) {
  const std::span<i32> bank(taps_and_delay_);
  return util::to_word(fir_step(bank.first(taps_n_), bank.subspan(taps_n_),
                                util::from_word(in[0])));
}

void ConfigurableFirRac::tick_compute() {
  if (!loading_) {
    StreamRac::tick_compute();
    return;
  }
  if (!config_fifo().empty()) {
    taps_and_delay_[taps_loaded_++] =
        util::from_word(static_cast<u32>(config_fifo().read()));
    if (taps_loaded_ == taps_n_) loading_ = false;
  }
}

bool ConfigurableFirRac::is_quiescent() const {
  return loading_ ? config_fifo().empty() : StreamRac::is_quiescent();
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
  // The wire's phase follows from busy and loading_.
  enum class Phase : u8 { kIdle, kLoadTaps, kStream };
  Phase phase = !busy_ ? Phase::kIdle
                       : (loading_ ? Phase::kLoadTaps : Phase::kStream);
  f.field_as<u8>("phase", phase, Phase::kStream);
  f.field("busy", busy_);
  if ((phase == Phase::kIdle) == busy_) f.fail("'phase' disagrees with 'busy'");
  f.field("taps_loaded", taps_loaded_);
  if (f.restoring()) loading_ = phase == Phase::kLoadTaps;
  if (taps_loaded_ > taps_n_ || (loading_ && taps_loaded_ == taps_n_)) {
    f.fail("'taps_loaded' is past the coefficient set");
  }
  f.field("remaining", remaining_);
  f.field("completed", completed_);
  f.field("reconfigs", reconfigs_);
  f.field("taps_and_delay", std::span(taps_and_delay_));
}

}  // namespace ouessant::rac
