// Functional (untimed) emulator of the Ouessant ISA — the golden model
// the cycle-level Controller is differentially tested against.
//
// The emulator executes a Program against a plain memory image and a
// functional RAC callback, tracking FIFO contents at word granularity.
// It reports exactly what the hardware run must produce: the final memory
// image, the number of RAC operations, and whether execution faulted.
// tests/test_fuzz.cpp drives both models with randomized programs and
// compares the results.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "ouessant/program.hpp"
#include "util/fault_info.hpp"

namespace ouessant::core {

struct EmuConfig {
  std::array<u32, 8> banks{};  ///< bank base addresses (byte)
  u32 num_in_fifos = 1;
  u32 num_out_fifos = 1;
  u32 max_steps = 1 << 20;  ///< fuel for runaway loops
};

struct EmuResult {
  bool ok = true;    ///< false when the run faulted
  /// When/where/why execution faulted (FaultInfo::cycle holds the
  /// instruction count at the fault — the untimed model has no clock).
  /// Same shape the Controller's last_fault() uses, so differential
  /// tests can compare fault sites directly.
  FaultInfo fault;
  u64 instructions = 0;
  u64 rac_ops = 0;
  u64 irqs = 0;  ///< progress interrupts (IRQ instruction)
  u64 words_to_rac = 0;
  u64 words_from_rac = 0;
};

/// Functional RAC: consumes the input FIFO word-streams, produces output
/// word-streams. Called once per exec/execs. The callback receives the
/// input FIFO queues (mutable: it must pop what it consumes) and pushes
/// into the output queues.
using EmuRac =
    std::function<void(std::vector<std::deque<u32>>& in_fifos,
                       std::vector<std::deque<u32>>& out_fifos)>;

/// Execute @p prog functionally over @p memory (word-addressed by byte
/// address; missing addresses read as 0). The untimed model assumes
/// unbounded FIFOs — legal programs never depend on FIFO backpressure for
/// correctness, only for timing.
EmuResult emulate(const Program& prog, const EmuConfig& cfg,
                  std::map<Addr, u32>& memory, const EmuRac& rac);

/// Convenience functional RAC: drain input FIFO 0 completely and copy it
/// to output FIFO 0 (matches PassthroughRac with 32-bit chunks when the
/// block size equals the words supplied).
EmuRac passthrough_emu_rac();

}  // namespace ouessant::core
