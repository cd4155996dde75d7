// Diagnostic / bring-up RACs.
//
// PassthroughRac copies its input block to its output unchanged. Its RAC
// side defaults to 48-bit chunks, so it exercises both the serializing
// and deserializing paths of the width-adapting FIFOs (the paper's Fig. 2
// draws a 32 <-> 96 conversion; the simulation model transports chunks of
// up to 64 bits, and 48 bits exercises the same non-unit width ratios,
// including chunks that straddle bus words). ScaleRac applies a Q16.16 fixed-point gain to
// each 32-bit word, providing the smallest non-trivial datapath.
// Both are the kind of core a user integrates first to validate an OCP
// drop ("once it was functional in simulation, it worked on the board on
// the first try").
#pragma once

#include "rac/block_rac.hpp"
#include "util/fixed.hpp"

namespace ouessant::rac {

class PassthroughRac : public BlockRac {
 public:
  /// @p chunks chunks of @p width bits are copied per operation.
  PassthroughRac(sim::Kernel& kernel, std::string name, u32 chunks,
                 unsigned width = 48, u32 compute_cycles = 0);

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 protected:
  [[nodiscard]] std::vector<u64> compute(const std::vector<u64>& in) override;
};

class ScaleRac : public BlockRac {
 public:
  /// Multiplies each of @p words 32-bit words by @p gain_q16 (Q16.16).
  ScaleRac(sim::Kernel& kernel, std::string name, u32 words, i32 gain_q16,
           u32 compute_cycles = 2);

  [[nodiscard]] res::ResourceNode resource_tree() const override;

 protected:
  [[nodiscard]] std::vector<u64> compute(const std::vector<u64>& in) override;

 private:
  i32 gain_q16_;
};

}  // namespace ouessant::rac
