// Two-input streaming RAC: element-wise saturating add of two vectors.
//
// Exercises the multi-FIFO side of the integration contract with two
// *data* streams (unlike ConfigurableFirRac, whose second FIFO carries
// configuration): microcode routes one operand bank to FIFO0 and the
// other to FIFO1, and the core consumes them in lock-step —
//
//     mvtc BANK1,0,DMA64,FIFO0    // operand A
//     mvtc BANK3,0,DMA64,FIFO1    // operand B
//     exec
//     mvfc BANK2,0,DMA64,FIFO0
//     eop
#pragma once

#include "rac/stream_rac.hpp"

namespace ouessant::rac {

class VecAddRac : public StreamRac {
 public:
  VecAddRac(sim::Kernel& kernel, std::string name, u32 block_len)
      : StreamRac(kernel, std::move(name), block_len, 2) {}

  void state(snap::Fields& f) override;

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  [[nodiscard]] u32 step(const Tokens& in) override;
};

}  // namespace ouessant::rac
