// FaultClass: how the dispatcher classifies a failed batch
// (svc::Dispatcher::handle_worker_fault, docs/robustness.md). The class
// names tag its "fault", "retry" and "job_failed" trace events.
// Header-only so svc can use it without a link edge onto the injector.
#pragma once

#include "util/types.hpp"

namespace ouessant::fault {

enum class FaultClass : u8 {
  kErrBit,           ///< the OCP latched ERR (microcode/bus fault)
  kTimeout,          ///< no completion within the deadline (hang)
  kVerifyMismatch,   ///< completed, but the payload fails verification
};

[[nodiscard]] inline const char* class_name(FaultClass cls) {
  switch (cls) {
    case FaultClass::kErrBit: return "err_bit";
    case FaultClass::kTimeout: return "timeout";
    case FaultClass::kVerifyMismatch: return "verify_mismatch";
  }
  return "?";
}

}  // namespace ouessant::fault
