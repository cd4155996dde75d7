// Point-to-point accelerator chaining conduit (docs/chaining.md).
//
// A ChainLink moves words straight from a producer OCP's output FIFO
// into a consumer OCP's input FIFO — the ESP-style p2p path that keeps
// intermediate results off the system bus entirely. The link is a tiny
// DMA engine: one staging register, a cycle counter, and a FSM that
// obeys both FIFOs' synchronous contracts (at most one read of the
// source and one write of the sink per cycle, never read-empty or
// write-full).
//
// Timing model: each word occupies the link for `cycles_per_word`
// cycles (pickup at cycle t, delivery at t + cycles_per_word - 1, next
// pickup the cycle after delivery). cycles_per_word == 1 is the
// wire-speed case: read and write happen in the same cycle through the
// staging register. Delivery stalls while the sink is full; the stall
// cycles are the consumer's problem (they show up as the consumer
// controller's wait, not as link transfer time), so the link's
// busy_cycles() is exactly words_moved() * cycles_per_word — the
// ledger-attributable transfer cost with no double counting.
//
// The link only moves words while enabled. The producer's CHAIN control
// bit (core::kCtrlChain) drives enabled via BusInterface's chain
// listener, so software arms the path with one CSR write.
#pragma once

#include <string>

#include "fifo/width_fifo.hpp"
#include "res/estimate.hpp"
#include "sim/kernel.hpp"

namespace ouessant::fifo {

struct ChainLinkConfig {
  /// Link occupancy per word moved, in cycles (>= 1). 1 = wire speed.
  u32 cycles_per_word = 1;
};

class ChainLink : public sim::Component, public res::ResourceAware {
 public:
  ChainLink(sim::Kernel& kernel, std::string name, ChainLinkConfig cfg);

  /// Wire the conduit: @p from is the producer's output FIFO (the link
  /// is its only reader while chained), @p to the consumer's input FIFO
  /// (the link is its only writer while chained). The port widths must
  /// agree — the link is a conduit, not a formatter. Call once.
  void bind(WidthFifo& from, WidthFifo& to);

  /// Gate the link. Disabling mid-word freezes the staging register
  /// (the word delivers when re-enabled); flush() drops it instead.
  void set_enabled(bool on);
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Drop the in-flight word (recovery path, paired with the OCPs' soft
  /// resets — the FIFOs on either side flush separately).
  void flush();

  // -- lifetime stats ---------------------------------------------------
  [[nodiscard]] u64 words_moved() const { return words_moved_; }
  /// Exactly words_moved() * cycles_per_word: the transfer cycles this
  /// link is charged in the cycle ledger.
  [[nodiscard]] u64 busy_cycles() const { return busy_cycles_; }

  [[nodiscard]] const ChainLinkConfig& config() const { return cfg_; }

  // sim::Component
  void tick_compute() override;
  [[nodiscard]] bool is_quiescent() const override;
  void state(snap::Fields& f) override;

  // res::ResourceAware
  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  ChainLinkConfig cfg_;
  WidthFifo* from_ = nullptr;
  WidthFifo* to_ = nullptr;

  bool enabled_ = false;
  bool has_pending_ = false;   ///< staging register holds a word
  u64 pending_ = 0;            ///< the word in flight
  Cycle ready_at_ = 0;         ///< earliest delivery cycle for pending_

  u64 words_moved_ = 0;
  u64 busy_cycles_ = 0;
};

}  // namespace ouessant::fifo
