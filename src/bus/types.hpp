// Core bus abstractions shared by every interconnect model.
//
// The paper's OCP talks to the SoC through a bus-specific interface FSM
// (Fig. 3, "System Bus (AHB, AXI, PLB, ...)"). We model that portability
// boundary with an abstract Bus: masters obtain a BusMasterPort, slaves
// implement BusSlave, and concrete interconnects (AhbBus, AxiLiteBus)
// provide the protocol timing.
#pragma once

#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "util/types.hpp"

namespace ouessant::bus {

class InterconnectModel;

/// Response of a slave to a single word access.
struct SlaveResponse {
  u32 data = 0;         ///< read data (ignored for writes)
  u32 wait_states = 0;  ///< extra cycles before the beat completes
};

/// A memory-mapped slave. Addresses passed in are absolute bus addresses;
/// slaves receive only accesses inside their decoded range.
class BusSlave {
 public:
  virtual ~BusSlave() = default;

  /// Word read at byte address @p addr (word aligned).
  virtual SlaveResponse read_word(Addr addr) = 0;

  /// Word write; returns the number of wait states.
  virtual u32 write_word(Addr addr, u32 data) = 0;

  /// True when this slave is pure storage with no simulation side
  /// channels: an access mutates nothing outside the slave itself — no
  /// component wakes, no IRQ edges, no registers another component
  /// polls. Only such slaves may be accessed eagerly by the
  /// interconnect's batched burst path; register files (OCP interfaces,
  /// IRQ controllers, DMA engines) return the conservative default and
  /// keep exact per-beat access timing.
  [[nodiscard]] virtual bool batchable_slave() const { return false; }

  [[nodiscard]] virtual std::string slave_name() const = 0;
};

/// Per-beat data producer for streamed write bursts (e.g. the OCP pulling
/// words out of a RAC output FIFO while mastering the bus).
///
/// The bulk_* pair lets the interconnect's batched-burst fast path drain
/// a whole grant's worth of beats in one tick. bulk_ready(want) answers
/// "if the bus took `want` beats on `want` consecutive cycles starting
/// now, with nothing else running, would every take_beat() succeed
/// without a stall — and would the result be bit-identical to doing so?"
/// A source that cannot promise that (another component drains/fills the
/// backing store concurrently, a fault hook rewrites beats, or it simply
/// does not implement bulk transfers) returns 0 and the bus falls back
/// to per-beat ticking. The default is that conservative 0.
class BeatSource {
 public:
  virtual ~BeatSource() = default;
  [[nodiscard]] virtual bool beat_ready() const = 0;
  virtual u32 take_beat() = 0;

  /// Beats deliverable back-to-back right now (0 = use per-beat path).
  [[nodiscard]] virtual u32 bulk_ready(u32 want) const {
    (void)want;
    return 0;
  }
  /// Take @p n beats at once; only called after bulk_ready(n) >= n.
  virtual void bulk_take(u32 n, u32* out) {
    for (u32 i = 0; i < n; ++i) out[i] = take_beat();
  }
};

/// Per-beat data consumer for streamed read bursts (e.g. the OCP pushing
/// words into a RAC input FIFO as they arrive from memory). See
/// BeatSource for the bulk_* contract; bulk_space() is the mirror image
/// ("would `want` put_beat() calls on consecutive cycles all succeed?").
class BeatSink {
 public:
  virtual ~BeatSink() = default;
  [[nodiscard]] virtual bool beat_space() const = 0;
  virtual void put_beat(u32 data) = 0;

  /// Beats acceptable back-to-back right now (0 = use per-beat path).
  [[nodiscard]] virtual u32 bulk_space(u32 want) const {
    (void)want;
    return 0;
  }
  /// Accept @p n beats at once; only called after bulk_space(n) >= n.
  virtual void bulk_put(u32 n, const u32* data) {
    for (u32 i = 0; i < n; ++i) put_beat(data[i]);
  }
};

/// Statistics a master port accumulates over its lifetime.
struct MasterStats {
  u64 transactions = 0;
  u64 beats = 0;
  u64 wait_cycles = 0;    ///< slave-inserted wait states
  u64 stall_cycles = 0;   ///< master-side stalls (source/sink not ready)
  u64 grant_cycles = 0;   ///< arbitration + address phases
};

/// Handle through which a master issues transactions. Created by a Bus via
/// connect_master(); owned by the bus.
class BusMasterPort {
 public:
  explicit BusMasterPort(std::string name, int priority)
      : name_(std::move(name)), priority_(priority) {}

  BusMasterPort(const BusMasterPort&) = delete;
  BusMasterPort& operator=(const BusMasterPort&) = delete;

  /// Buffered read of @p beats consecutive words starting at @p addr.
  void start_read(Addr addr, u32 beats = 1);

  /// Buffered write of @p data starting at @p addr.
  void start_write(Addr addr, std::vector<u32> data);

  /// Streamed read: each arriving word is pushed into @p sink.
  void start_read_stream(Addr addr, u32 beats, BeatSink& sink);

  /// Streamed write: each beat's data is pulled from @p source.
  void start_write_stream(Addr addr, u32 beats, BeatSource& source);

  /// True while a transaction is queued or in flight.
  [[nodiscard]] bool busy() const { return active_; }

  /// True when the last transaction terminated with a slave ERROR
  /// response (injected fault). Cleared by the next start_*().
  [[nodiscard]] bool faulted() const { return faulted_; }

  /// Abort the in-flight transaction, releasing the grant if this port
  /// holds it. No-op when idle. Used by the controller's soft reset;
  /// defined in interconnect.cpp (needs the interconnect's grant state).
  void abort();

  /// Read data of the last completed buffered read.
  [[nodiscard]] const std::vector<u32>& rdata() const { return rdata_; }

  /// Convenience: single-word read result.
  [[nodiscard]] u32 rdata0() const {
    if (rdata_.empty()) throw SimError("BusMasterPort: no read data");
    return rdata_[0];
  }

  [[nodiscard]] const MasterStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] int priority() const { return priority_; }

  /// Wake @p c when the in-flight transaction completes (or errors), so a
  /// component gated while polling busy() observes the completion edge.
  void wake_on_complete(sim::Component& c) { completion_waiter_ = &c; }

  /// Snapshot-restore hook: reattach the streamed endpoints of an
  /// in-flight transaction. A snapshot records only *whether* a sink or
  /// source was attached (they are wiring, not state); the component
  /// that issued the streamed transfer (the OCP controller) re-selects
  /// its FIFO adapter and calls this at the end of its own field list.
  void restore_stream(BeatSink* sink, BeatSource* source) {
    sink_ = sink;
    source_ = source;
  }

 private:
  friend class InterconnectModel;

  void begin(Addr addr, bool write, u32 beats) {
    if (active_) {
      throw SimError("BusMasterPort " + name_ +
                     ": start while transaction in flight");
    }
    if (addr % 4 != 0) {
      throw SimError("BusMasterPort " + name_ + ": unaligned address");
    }
    if (beats == 0) {
      throw SimError("BusMasterPort " + name_ + ": zero-length burst");
    }
    addr_ = addr;
    write_ = write;
    beats_ = beats;
    active_ = true;
    faulted_ = false;
    sink_ = nullptr;
    source_ = nullptr;
    wdata_.clear();
    rdata_.clear();
    wdata_index_ = 0;
    // A new request must un-gate the interconnect's clock.
    if (bus_ != nullptr) bus_->wake();
  }

  std::string name_;
  int priority_;

  sim::Component* bus_ = nullptr;                // owning interconnect
  InterconnectModel* owner_ = nullptr;           // same object, typed
  sim::Component* completion_waiter_ = nullptr;  // gated busy()-poller

  // Interned kernel counters (<bus>.<port>.beats / .transactions),
  // bumped by the interconnect on the hot beat-completion path.
  sim::Stats::Handle h_beats_;
  sim::Stats::Handle h_transactions_;

  // Transaction state (owned by the interconnect while active).
  bool active_ = false;
  bool faulted_ = false;
  Addr addr_ = 0;
  bool write_ = false;
  u32 beats_ = 0;
  std::vector<u32> wdata_;
  std::size_t wdata_index_ = 0;
  std::vector<u32> rdata_;
  BeatSink* sink_ = nullptr;
  BeatSource* source_ = nullptr;

  MasterStats stats_;
};

inline void BusMasterPort::start_read(Addr addr, u32 beats) {
  begin(addr, /*write=*/false, beats);
}

inline void BusMasterPort::start_write(Addr addr, std::vector<u32> data) {
  begin(addr, /*write=*/true, static_cast<u32>(data.size()));
  wdata_ = std::move(data);
}

inline void BusMasterPort::start_read_stream(Addr addr, u32 beats,
                                             BeatSink& sink) {
  begin(addr, /*write=*/false, beats);
  sink_ = &sink;
}

inline void BusMasterPort::start_write_stream(Addr addr, u32 beats,
                                              BeatSource& source) {
  begin(addr, /*write=*/true, beats);
  source_ = &source;
}

}  // namespace ouessant::bus
