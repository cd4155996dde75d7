// Level-sensitive interrupt line. Peripherals raise it; the GPP (or the
// simulated OS) observes and clears it. A plain shared object rather than
// a Component: the line itself has no clocked state.
//
// Components that sleep while polling a line (WFI cores, the IRQ
// controller) register themselves as watchers; any level *change* wakes
// every watcher so a gated observer never misses an edge. The watcher
// list is mutable so observers holding only a `const IrqLine&` can still
// subscribe — watching does not alter the line's simulated state.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/kernel.hpp"

namespace ouessant::cpu {

class IrqLine {
 public:
  void raise() {
    if (!level_) notify();
    level_ = true;
  }
  void clear() {
    if (level_) notify();
    level_ = false;
  }
  [[nodiscard]] bool raised() const { return level_; }

  /// Snapshot-restore: set the level without notifying watchers (the
  /// kernel restore pass rebuilds the awake set afterwards; a spurious
  /// edge here would wake components the snapshot recorded asleep).
  void restore_level(bool level) { level_ = level; }

  /// Wake @p watcher on every subsequent level change. Idempotent.
  void watch(sim::Component& watcher) const {
    if (std::find(watchers_.begin(), watchers_.end(), &watcher) ==
        watchers_.end()) {
      watchers_.push_back(&watcher);
    }
  }

 private:
  void notify() const {
    for (sim::Component* w : watchers_) w->wake();
  }

  bool level_ = false;
  mutable std::vector<sim::Component*> watchers_;
};

}  // namespace ouessant::cpu
