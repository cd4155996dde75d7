#include "rac/vecadd.hpp"

#include "util/fixed.hpp"

namespace ouessant::rac {

u32 VecAddRac::step(const Tokens& in) {
  const i64 sum = static_cast<i64>(util::from_word(in[0])) +
                  util::from_word(in[1]);
  return util::to_word(static_cast<i32>(util::saturate(sum, 32)));
}

res::ResourceNode VecAddRac::resource_tree() const {
  res::ResourceEstimate e;
  e += res::est_adder(33);
  e += res::est_register(33);
  e += res::est_fsm(3, 4);
  e += res::est_register(ceil_log2(block_len() + 1));
  return {.name = name(), .self = e, .children = {}};
}

void VecAddRac::state(snap::Fields& f) {
  Rac::state(f);
  f.field("busy", busy_);
  f.field("remaining", remaining_);
  f.field("completed", completed_);
}

}  // namespace ouessant::rac
