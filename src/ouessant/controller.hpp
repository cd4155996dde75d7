// The Ouessant controller (paper §III-D): an unpipelined
// Fetch/Decode/Execute microcontroller that decodes the microcode program
// and drives data transfers and accelerator execution.
//
// Timing: FETCH is a single-word bus read of the instruction from the
// program bank (bank 0, see regs.hpp); DECODE takes one cycle and issues
// the operation; EXECUTE lasts as long as the operation (a burst for
// mvtc/mvfc, the RAC busy window for exec, one cycle for the rest).
//
// Faults (unassigned opcode, FIFO id beyond the RAC's ports, running off
// the end of the program) stop execution and set the ERR control bit —
// the hardware counterpart of the static Program verifier.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "fault/hooks.hpp"
#include "fifo/width_fifo.hpp"
#include "obs/tracer.hpp"
#include "ouessant/interface.hpp"
#include "ouessant/isa.hpp"
#include "ouessant/rac_if.hpp"
#include "res/estimate.hpp"
#include "sim/kernel.hpp"
#include "util/fault_info.hpp"

namespace ouessant::core {

/// Which instruction subset the controller accepts. kV1 is the paper's
/// 4-instruction controller; kV2 adds NOP/WAIT/LOOP (the paper's
/// announced ISA evolution). Used by the E6 ablation.
enum class IsaLevel { kV1, kV2 };

struct ControllerStats {
  u64 instructions = 0;
  u64 fetch_cycles = 0;
  u64 decode_cycles = 0;
  u64 xfer_cycles = 0;
  u64 exec_wait_cycles = 0;
  u64 idle_cycles = 0;
  u64 words_to_rac = 0;
  u64 words_from_rac = 0;
  u64 runs = 0;     ///< completed programs (EOP reached)
  u64 faults = 0;
  u64 progress_irqs = 0;  ///< v2 IRQ instructions executed
};

class Controller : public sim::Component, public res::ResourceAware {
 public:
  Controller(sim::Kernel& kernel, std::string name, BusInterface& iface,
             Rac& rac, std::vector<fifo::WidthFifo*> in_fifos,
             std::vector<fifo::WidthFifo*> out_fifos,
             IsaLevel isa_level = IsaLevel::kV2);

  // sim::Component
  void tick_compute() override;
  /// Quiescent in every wait state whose exit has a wake hook: idle
  /// (start write wakes us), fetch/xfer (bus completion), exec-wait (RAC
  /// end_op). Never quiescent in decode — it always does work.
  [[nodiscard]] bool is_quiescent() const override;
  /// Serializes the FSM, loop register, counters, the bus interface's
  /// register file (the interface is not a Component — this section
  /// carries it), and the valid decode-cache entries as (slot, word)
  /// pairs re-decoded on restore (isa::decode is pure in the word, so
  /// hit/miss counters stay bit-exact). A restored mid-transfer (kXfer)
  /// state reattaches the streamed FIFO endpoint to the master port.
  void state(snap::Fields& f) override;

  /// Snapshot of the counters with cycles spent clock-gated folded into
  /// the current wait state's counter (so a reading taken while the
  /// controller sleeps matches the ungated sweep exactly).
  [[nodiscard]] ControllerStats stats() const;
  [[nodiscard]] IsaLevel isa_level() const { return isa_level_; }
  [[nodiscard]] bool running() const { return state_ != State::kIdle; }
  [[nodiscard]] u32 pc() const { return pc_; }
  /// Numeric FSM phase (0=idle 1=fetch 2=decode 3=xfer 4=exec-wait) for
  /// waveform probes.
  [[nodiscard]] u32 state_id() const { return static_cast<u32>(state_); }

  // res::ResourceAware
  [[nodiscard]] res::ResourceNode resource_tree() const override;

  /// Attach (or detach, nullptr) an event tracer. Each microcode
  /// instruction is then emitted as one span (named by its mnemonic,
  /// covering fetch through completion, annotated with its pc) on a
  /// track "ctrl.<name>"; faults appear as instants.
  void set_tracer(obs::EventTracer* tracer);

  /// Attach (or detach, nullptr) a fault hook: fetched words pass
  /// through corrupt_fetch() before decode (microcode bit-flips) and
  /// mvfc-drained words through corrupt_output(). One branch each when
  /// unarmed.
  void set_fault_hook(fault::OcpFaultHook* hook) { fault_hook_ = hook; }

  /// When/where/why of the most recent fault (empty reason when this
  /// controller never faulted). The dispatcher backdoor-reads this to
  /// explain a fault — the hardware registers only carry the ERR bit.
  [[nodiscard]] const FaultInfo& last_fault() const { return last_fault_; }

  /// Decoded-microcode cache on/off (default: on). isa::decode is a pure
  /// function of the 32-bit word, so the word-keyed cache can never go
  /// stale; the off switch exists for differential determinism tests.
  /// The cache is flushed on program start and soft reset regardless
  /// (hygiene: entries never outlive the program that fetched them).
  void set_decode_cache(bool on) {
    decode_cache_enabled_ = on;
    if (!on) flush_decode_cache();
  }
  [[nodiscard]] u64 decode_cache_hits() const { return decode_hits_; }
  [[nodiscard]] u64 decode_cache_misses() const { return decode_misses_; }

 private:
  enum class State { kIdle, kFetch, kDecode, kXfer, kExecWait };

  /// BeatSink pushing arriving bus words into an input FIFO (mvtc).
  /// Bulk transfers are offered only while the RAC is idle (a busy RAC
  /// drains the FIFO concurrently, making per-beat interleaving
  /// observable — e.g. an execs-then-mvtc pipelined program) and no
  /// fault hook is armed.
  class FifoSink : public bus::BeatSink {
   public:
    explicit FifoSink(Controller& c) : c_(c) {}
    void select(fifo::WidthFifo* f) { f_ = f; }
    [[nodiscard]] bool beat_space() const override { return !f_->full(); }
    void put_beat(u32 data) override {
      f_->write(data);
      ++c_.stats_.words_to_rac;
    }
    [[nodiscard]] u32 bulk_space(u32 want) const override {
      if (c_.rac_.exec_pending() || c_.fault_hook_ != nullptr) return 0;
      return f_->bulk_writable(want);
    }
    void bulk_put(u32 n, const u32* data) override {
      for (u32 i = 0; i < n; ++i) {
        const u64 v = data[i];
        f_->bulk_write(&v, 1);
      }
      c_.stats_.words_to_rac += n;
    }

   private:
    Controller& c_;
    fifo::WidthFifo* f_ = nullptr;
  };

  /// BeatSource pulling outgoing bus words from an output FIFO (mvfc).
  /// Same bulk gating as FifoSink; an armed hook must corrupt beats one
  /// by one, so it forces the per-beat path.
  class FifoSource : public bus::BeatSource {
   public:
    explicit FifoSource(Controller& c) : c_(c) {}
    void select(fifo::WidthFifo* f) { f_ = f; }
    [[nodiscard]] bool beat_ready() const override { return !f_->empty(); }
    u32 take_beat() override {
      ++c_.stats_.words_from_rac;
      u32 word = static_cast<u32>(f_->read());
      if (c_.fault_hook_ != nullptr) {
        word = c_.fault_hook_->corrupt_output(word, c_.kernel().now());
      }
      return word;
    }
    [[nodiscard]] u32 bulk_ready(u32 want) const override {
      if (c_.rac_.exec_pending() || c_.fault_hook_ != nullptr) return 0;
      return f_->bulk_readable(want);
    }
    void bulk_take(u32 n, u32* out) override {
      for (u32 i = 0; i < n; ++i) {
        u64 v = 0;
        f_->bulk_read(&v, 1);
        out[i] = static_cast<u32>(v);
      }
      c_.stats_.words_from_rac += n;
    }

   private:
    Controller& c_;
    fifo::WidthFifo* f_ = nullptr;
  };

  void issue_fetch();
  void next_instruction();
  void decode_and_issue();
  void fault(const char* why);
  void do_soft_reset();
  void trace_instr_end();

  BusInterface& iface_;
  Rac& rac_;
  std::vector<fifo::WidthFifo*> in_fifos_;
  std::vector<fifo::WidthFifo*> out_fifos_;
  IsaLevel isa_level_;

  State state_ = State::kIdle;
  u32 pc_ = 0;
  u32 ir_ = 0;
  isa::Instruction cur_{};

  // Decoded-microcode cache: direct-mapped, keyed on the raw program
  // word (faulting words are not cached — the fault path re-decodes).
  struct DecodeEntry {
    u32 word = 0;
    bool valid = false;
    isa::Instruction instr{};
  };
  static constexpr std::size_t kDecodeCacheSize = 64;
  std::array<DecodeEntry, kDecodeCacheSize> decode_cache_{};
  bool decode_cache_enabled_ = true;
  u64 decode_hits_ = 0;
  u64 decode_misses_ = 0;
  // Interned "<name>.decode_hits"/"<name>.decode_misses" — published to
  // Stats so sweeps and traces report cache effectiveness.
  sim::Stats::Handle h_decode_hits_;
  sim::Stats::Handle h_decode_misses_;
  void flush_decode_cache() {
    for (DecodeEntry& e : decode_cache_) e.valid = false;
  }

  // Single hardware loop register (v2 LOOP). While a loop is active,
  // mvtc/mvfc offsets auto-increment by (iteration * burst length) —
  // "post-increment streaming mode" — so one looped transfer instruction
  // replaces an unrolled ladder of them (the E6 ablation).
  bool loop_active_ = false;
  u32 loop_left_ = 0;
  u32 loop_iter_ = 0;  ///< completed iterations of the active loop

  FifoSink sink_;
  FifoSource source_;
  ControllerStats stats_;
  FaultInfo last_fault_;
  fault::OcpFaultHook* fault_hook_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  Cycle instr_begin_ = 0;  ///< fetch-issue cycle of the current instruction
  u32 instr_pc_ = 0;       ///< pc of the current instruction
  Cycle next_expected_tick_ = 0;  // sleep-credit anchor for wait counters
  [[nodiscard]] u64 pending_credit() const;
  void credit_skipped(u64 skipped);
};

}  // namespace ouessant::core
