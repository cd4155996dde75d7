#include "fifo/chain_link.hpp"

#include "snap/state.hpp"

namespace ouessant::fifo {

ChainLink::ChainLink(sim::Kernel& kernel, std::string name,
                     ChainLinkConfig cfg)
    : sim::Component(kernel, std::move(name)), cfg_(cfg) {
  if (cfg_.cycles_per_word == 0) {
    throw ConfigError("ChainLink " + this->name() +
                      ": cycles_per_word must be >= 1");
  }
}

void ChainLink::bind(WidthFifo& from, WidthFifo& to) {
  if (from_ != nullptr) {
    throw ConfigError("ChainLink " + name() + ": already bound");
  }
  if (from.config().rd_width != to.config().wr_width) {
    throw ConfigError("ChainLink " + name() + ": width mismatch (reads " +
                      std::to_string(from.config().rd_width) + "b, writes " +
                      std::to_string(to.config().wr_width) + "b)");
  }
  from_ = &from;
  to_ = &to;
  // The link gates its clock while blocked on either flag; the FIFOs
  // wake it on every committed state change.
  from.add_waiter(*this);
  to.add_waiter(*this);
}

void ChainLink::set_enabled(bool on) {
  if (enabled_ == on) return;
  enabled_ = on;
  if (on) wake();
}

void ChainLink::flush() {
  has_pending_ = false;
  pending_ = 0;
}

void ChainLink::tick_compute() {
  if (from_ == nullptr || !enabled_) return;
  const Cycle now = kernel().now();
  if (has_pending_) {
    if (now < ready_at_) {  // spurious wake mid-occupancy
      wake_at(ready_at_);
      return;
    }
    if (to_->full()) return;  // stall; to_'s waiter wake resumes us
    to_->write(pending_);
    has_pending_ = false;
    ++words_moved_;
    busy_cycles_ += cfg_.cycles_per_word;
    return;  // next pickup starts the cycle after delivery
  }
  if (from_->empty()) return;
  if (cfg_.cycles_per_word == 1) {
    // Wire speed: source read and sink write in the same cycle through
    // the staging register.
    if (to_->full()) return;
    to_->write(from_->read());
    ++words_moved_;
    ++busy_cycles_;
    return;
  }
  pending_ = from_->read();
  has_pending_ = true;
  ready_at_ = now + cfg_.cycles_per_word - 1;
  wake_at(ready_at_);
}

bool ChainLink::is_quiescent() const {
  if (from_ == nullptr || !enabled_) return true;  // set_enabled wakes
  if (has_pending_) {
    // Mid-occupancy: the wake_at timer is armed. Delivery-blocked: the
    // sink's waiter list wakes us when it drains.
    return true;
  }
  if (from_->empty()) return true;  // source waiter wakes on commit
  if (cfg_.cycles_per_word == 1 && to_->full()) return true;
  return false;
}

void ChainLink::state(snap::Fields& f) {
  f.field("enabled", enabled_);
  f.field("has_pending", has_pending_);
  f.field("pending", pending_);
  f.field("ready_at", ready_at_);
  f.field("words_moved", words_moved_);
  f.field("busy_cycles", busy_cycles_);
}

res::ResourceNode ChainLink::resource_tree() const {
  // One staging register, an occupancy down-counter, and the
  // pickup/occupy/deliver FSM.
  res::ResourceNode n{.name = name(), .self = {}, .children = {}};
  n.self += res::est_register(64 + 16);  // staging word + cycle counter
  n.self += res::est_fsm(3, 8);
  return n;
}

}  // namespace ouessant::fifo
