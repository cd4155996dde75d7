#include "rac/fir.hpp"

#include <algorithm>

namespace ouessant::rac {

i32 fir_step(std::span<const i32> taps_q16, std::span<i32> delay, i32 x) {
  for (std::size_t k = delay.size() - 1; k > 0; --k) delay[k] = delay[k - 1];
  delay[0] = x;
  i64 acc = 0;
  for (std::size_t k = 0; k < taps_q16.size(); ++k) {
    acc += static_cast<i64>(taps_q16[k]) * delay[k];
  }
  acc += i64{1} << 15;
  return static_cast<i32>(util::saturate(acc >> 16, 32));
}

FirRac::FirRac(sim::Kernel& kernel, std::string name,
               std::vector<i32> taps_q16, u32 block_len)
    : StreamRac(kernel, std::move(name), block_len, 1),
      taps_(std::move(taps_q16)) {
  if (taps_.empty()) {
    throw ConfigError("FirRac " + this->name() + ": needs at least one tap");
  }
  delay_.assign(taps_.size(), 0);
}

void FirRac::on_start() { std::fill(delay_.begin(), delay_.end(), 0); }

u32 FirRac::step(const Tokens& in) {
  return util::to_word(fir_step(taps_, delay_, util::from_word(in[0])));
}

std::vector<i32> FirRac::filter_reference(const std::vector<i32>& taps_q16,
                                          const std::vector<i32>& x) {
  std::vector<i32> delay(taps_q16.size(), 0);
  std::vector<i32> y;
  y.reserve(x.size());
  for (const i32 v : x) y.push_back(fir_step(taps_q16, delay, v));
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
