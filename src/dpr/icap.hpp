// IcapPort: the SoC's configuration port, the one module that times a
// partial reconfiguration.
//
// A reconfigurable region (core::ReconfigSlot) only gates itself between
// begin_swap() and finish_swap(); the port streams the bitstream and
// calls its owner back on completion, where the owner commits the swap.
// On a Zynq-class part the PCAP/ICAP fetches partial bitstreams out of
// main memory over the same interconnect the accelerators stream their
// data through, so a swap steals bus bandwidth from the OCPs (and is
// itself slowed by them).
//
// In kBusMaster mode the port models exactly that: a sim::Component
// owning a BusMasterPort (like the baseline DMA engine) that streams a
// bitstream image out of SRAM in bursts, consuming words at ICAP width
// (bytes_per_cycle), then pays the fixed decouple/flush/reset overhead,
// and finally invokes a completion callback. A `kFree` mode models a
// port with a private path to the bitstream: a fixed-rate countdown of
// bytes / bytes_per_cycle cycles, no bus traffic, then the same
// overhead. E7 swaps its region through a free port, and the dpr_icap
// scenario compares shared against free.
//
// Cache-fed loads (BitstreamCache hit) skip the bus entirely and stream
// at full ICAP rate from the staging BRAM — the latency win the cache
// exists to provide.
#pragma once

#include <functional>
#include <string>

#include "bus/interconnect.hpp"
#include "obs/tracer.hpp"
#include "sim/kernel.hpp"

namespace ouessant::dpr {

enum class IcapMode : u8 {
  kBusMaster = 0,  ///< stream images out of SRAM over the shared bus
  kFree,           ///< private path: fixed-rate countdown, no bus
};

struct IcapConfig {
  /// 7-series ICAP is 32 bits wide, one word per cycle.
  u32 bytes_per_cycle = 4;
  /// Extra cycles per swap: decouple logic, flush, reset sequence.
  u32 swap_overhead_cycles = 64;
};

struct IcapPortConfig {
  IcapConfig icap{};
  IcapMode mode = IcapMode::kBusMaster;
  /// Words per bus read burst (chunking keeps grants bounded so data
  /// traffic interleaves with a long bitstream fetch).
  u32 burst_words = 64;
  /// Reconfiguration yields to everything else on a fixed-priority bus
  /// (cpu=0, OCPs=1, DMA=2).
  int master_priority = 3;
};

class IcapPort : public sim::Component, public bus::BeatSink {
 public:
  IcapPort(sim::Kernel& kernel, std::string name, bus::InterconnectModel& bus,
           IcapPortConfig cfg = {});

  /// Completion wiring (set once by the owner): invoked — inside this
  /// component's tick — with the token passed to start_load().
  void set_done_callback(std::function<void(u32)> fn) {
    done_fn_ = std::move(fn);
  }

  /// Begin streaming @p bytes of bitstream from @p src. One load at a
  /// time (SimError while busy — the owner serializes the single
  /// configuration port). @p from_cache skips the bus (a staged copy
  /// feeds the port at full ICAP rate); in kFree mode every load is
  /// port-fed regardless. @p label annotates the tracer span.
  void start_load(Addr src, u32 bytes, bool from_cache, u32 token,
                  std::string label);

  [[nodiscard]] bool busy() const { return state_ != State::kIdle; }
  [[nodiscard]] IcapMode mode() const { return cfg_.mode; }
  [[nodiscard]] const IcapConfig& icap() const { return cfg_.icap; }

  // -- accounting (the obs::collect_icap ledger track reads these) ------
  [[nodiscard]] u64 loads() const { return loads_; }
  /// Wall cycles between start_load and completion, summed over
  /// completed loads (an in-flight load counts on completion).
  [[nodiscard]] u64 busy_cycles_total() const { return busy_cycles_total_; }
  /// Streaming cycles of cache-fed / free-mode loads (no bus beats).
  [[nodiscard]] u64 direct_stream_cycles() const {
    return direct_stream_cycles_;
  }
  /// Fixed per-swap decouple/flush/reset cycles, summed.
  [[nodiscard]] u64 overhead_cycles_total() const {
    return overhead_cycles_total_;
  }
  /// The port's bus-side counters (all zero in kFree mode).
  [[nodiscard]] const bus::MasterStats& master_stats() const;

  /// Streaming cycles a @p bytes load takes at ICAP width (the countdown
  /// of cache-fed and free-mode loads, before the overhead).
  [[nodiscard]] u32 stream_cycles_for(u32 bytes) const {
    return bytes / cfg_.icap.bytes_per_cycle;
  }

  /// Attach (or detach, nullptr) an event tracer: one "swap" span per
  /// load on track "dpr.<name>", annotated with label/bytes/cached.
  void set_tracer(obs::EventTracer* tracer);

  // bus::BeatSink — the ICAP consumes one 32-bit word per
  // ceil(4 / bytes_per_cycle) cycles; narrower ICAPs stall the bus.
  [[nodiscard]] bool beat_space() const override;
  void put_beat(u32 data) override;
  [[nodiscard]] u32 bulk_space(u32 want) const override;

  // sim::Component
  void tick_compute() override;
  [[nodiscard]] bool is_quiescent() const override;
  void state(snap::Fields& f) override;

 private:
  enum class State : u8 {
    kIdle = 0,
    kStream,    ///< bus-mastered burst reads in flight
    kDirect,    ///< cache-fed / free-mode fixed-rate countdown
    kOverhead,  ///< decouple/flush/reset tail
  };

  void issue_chunk();
  void enter_overhead();
  void complete_load();

  IcapPortConfig cfg_;
  bus::BusMasterPort* port_ = nullptr;  // null in kFree mode
  u32 cycles_per_word_;
  std::function<void(u32)> done_fn_;
  obs::EventTracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;

  // In-flight load.
  State state_ = State::kIdle;
  Addr src_ = 0;
  u32 words_ = 0;       ///< total words of the load
  u32 words_done_ = 0;  ///< words consumed so far
  u32 bytes_ = 0;
  bool from_cache_ = false;
  u32 token_ = 0;
  std::string label_;
  Cycle load_begin_ = 0;
  Cycle phase_end_ = 0;    ///< completion cycle of kDirect/kOverhead
  Cycle next_accept_ = 0;  ///< earliest cycle the next beat fits (cpw > 1)

  // Lifetime counters.
  u64 loads_ = 0;
  u64 bytes_streamed_ = 0;
  u64 busy_cycles_total_ = 0;
  u64 direct_stream_cycles_ = 0;
  u64 overhead_cycles_total_ = 0;
};

}  // namespace ouessant::dpr
