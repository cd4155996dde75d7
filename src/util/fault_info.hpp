// The one fault record every layer shares.
//
// A fault observation always answers the same three questions — *when*
// (a cycle, or an instruction step for the untimed emulator), *where*
// (the microcode pc) and *what* (a human-readable reason). The emulator,
// the cycle-level Controller and the dispatcher's fault events all carry
// this struct so a fault can be compared across models without
// re-parsing strings (the old EmuResult::fault was a bare string;
// DESIGN.md §11).
#pragma once

#include <string>

#include "util/types.hpp"

namespace ouessant {

struct FaultInfo {
  Cycle cycle = 0;     ///< sim cycle (emulator: instruction steps executed)
  u32 pc = 0;          ///< microcode pc at the fault (0 when not applicable)
  std::string reason;  ///< empty <=> no fault recorded

  [[nodiscard]] bool empty() const { return reason.empty(); }

  [[nodiscard]] std::string to_string() const {
    if (empty()) return "no fault";
    return reason + " (pc=" + std::to_string(pc) + ", cycle=" +
           std::to_string(cycle) + ")";
  }

  friend bool operator==(const FaultInfo&, const FaultInfo&) = default;
};

}  // namespace ouessant
