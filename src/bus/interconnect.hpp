// Shared interconnect engine. Concrete protocols (AHB, AXI-Lite) are thin
// configurations of this model: they differ in how many data beats a grant
// may carry, and in the per-grant overhead (arbitration + address phase).
//
// Timing model, per clock cycle the bus does exactly one of:
//   * arbitration/address phase (start of a grant),
//   * one data beat (slave access),
//   * one slave wait state,
//   * one master stall (streamed source empty / sink full).
// This matches a single-layer AHB-class bus transferring at most one word
// per cycle, which is what the paper's Leon3/AMBA2 platform provides.
#pragma once

#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bus/types.hpp"
#include "fault/hooks.hpp"
#include "obs/tracer.hpp"
#include "sim/kernel.hpp"

namespace ouessant::bus {

/// Arbitration policy between requesting masters.
enum class Arbitration {
  kFixedPriority,  ///< lower priority value wins (Leon3 AHB style)
  kRoundRobin,     ///< rotating priority
};

struct BusTimingConfig {
  u32 address_phase_cycles = 1;  ///< overhead per grant
  u32 max_beats_per_grant = 256; ///< burst split threshold (1 => no bursts)
  Arbitration arbitration = Arbitration::kFixedPriority;
};

/// One bus transaction: the record a traced bus keeps while it is in
/// flight, and what bus::transactions() rebuilds from its span.
struct TxnRecord {
  Cycle start = 0;
  Cycle end = 0;
  std::string master;
  Addr addr = 0;
  bool write = false;
  u32 beats = 0;
  u32 waits = 0;   ///< slave wait states inside this transaction
  u32 stalls = 0;  ///< master stalls inside this transaction
};

class InterconnectModel : public sim::Component {
 public:
  InterconnectModel(sim::Kernel& kernel, std::string name,
                    BusTimingConfig cfg);

  /// Create a master port. @p priority: smaller wins under fixed priority.
  BusMasterPort& connect_master(const std::string& name, int priority = 0);

  /// Map @p slave at [base, base+size). Ranges must not overlap.
  void connect_slave(BusSlave& slave, Addr base, u32 size);

  /// Address decode (throws SimError on a hole — models an AHB ERROR).
  [[nodiscard]] BusSlave& decode(Addr addr) const;

  /// True if some slave is mapped at @p addr.
  [[nodiscard]] bool is_mapped(Addr addr) const;

  // sim::Component
  void tick_compute() override;
  /// Serializes the grant window, any open batched-burst window, and
  /// every master port's transaction state (streamed endpoints as
  /// attachment flags — see BusMasterPort::restore_stream). A pending
  /// batch_error_ (a slave exception awaiting its per-beat cycle) is not
  /// serializable and makes a save throw.
  void state(snap::Fields& f) override;
  /// Quiescent whenever no master holds or requests the bus: the only
  /// effect of a tick in that state is counting an idle cycle, which the
  /// sleep-credit below reproduces. BusMasterPort::begin() wakes us.
  /// Also quiescent while sleeping out a batched burst window (the
  /// wake_at() arming the window's final cycle is already in the heap).
  [[nodiscard]] bool is_quiescent() const override;

  // Introspection.
  [[nodiscard]] const BusTimingConfig& timing() const { return cfg_; }
  [[nodiscard]] u64 busy_cycles() const { return busy_cycles_; }
  /// Idle cycle count, folding in cycles spent clock-gated (every gated
  /// cycle is by construction an idle one).
  [[nodiscard]] u64 idle_cycles() const {
    return idle_cycles_ + pending_idle_credit();
  }
  /// True while some master holds the bus (instantaneous, for probes).
  [[nodiscard]] bool granted_now() const { return granted_ != nullptr; }

  /// Write snooping: @p fn is invoked for every completed write beat with
  /// the beat address and the mastering port — the hook cache-coherency
  /// logic uses to observe DMA traffic (§IV: "current systems implement
  /// cache snooping").
  using WriteSnooper = std::function<void(Addr, const BusMasterPort&)>;
  void add_write_snooper(WriteSnooper fn) {
    snoopers_.push_back(std::move(fn));
  }

  /// Attach (or detach, nullptr) an event tracer. Every completed
  /// transaction is then emitted as one span ("wr"/"rd") on a track
  /// named "bus.<name>", annotated with master, address, beat count and
  /// the wait-state/stall cycles it absorbed; one ended by an ERROR
  /// response as an "err" span with master, address and beat count.
  /// bus::transactions() reads them back for the protocol monitor.
  void set_tracer(obs::EventTracer* tracer);

  /// Attach (or detach, nullptr) a fault hook, consulted once per data
  /// beat. A firing hook turns the beat into a slave ERROR response:
  /// the transaction terminates, the master port latches faulted(), and
  /// the error cycle is accounted as a wait state (so the per-master
  /// one-action-per-busy-cycle identity survives faulty runs). One
  /// branch per beat when unarmed (passivity discipline).
  void set_fault_hook(fault::BusFaultHook* hook) { fault_hook_ = hook; }

  /// Abort @p m's in-flight transaction (soft reset): the port is
  /// deactivated without an error latch and the grant is released if
  /// @p m holds it. No-op when the port is idle.
  void abort_master(BusMasterPort& m);

  /// Per-category cycle totals summed over every master port. With the
  /// model's one-action-per-busy-cycle invariant,
  ///   beats + grant_cycles + wait_cycles + stall_cycles == busy_cycles()
  /// — the identity the CycleLedger builds Table I's transfer column on.
  [[nodiscard]] MasterStats master_totals() const;

  /// Batched burst windows on/off (default: on). When on, a grant whose
  /// chunk has no observer armed — no tracer, fault hook, write
  /// snooper, or kernel sampler — and whose beats all decode
  /// into one slave mapping (with any streamed endpoint promising the
  /// whole chunk stall-free, see BeatSource::bulk_ready) is completed as
  /// ONE event: the slave accesses run eagerly at the grant tick, the
  /// bus sleeps to the cycle the final per-beat tick would have landed
  /// on, and every counter, data word, and completion wake is
  /// bit-identical to per-beat ticking. Off (or any armed observer)
  /// keeps the seed's per-beat loop — the differential-test reference.
  void set_batching(bool on) { batching_enabled_ = on; }

  /// Grant chunks completed through the batched fast path (diagnostics;
  /// tests assert 0 here to prove an armed observer forced per-beat
  /// ticking, and > 0 to prove batching engaged).
  [[nodiscard]] u64 batched_chunks() const { return batched_chunks_; }

 private:
  struct Mapping {
    Addr base;
    u32 size;
    BusSlave* slave;
  };

  BusMasterPort* select_master();
  bool try_batch_chunk();
  void finish_batch();
  void complete_beat(u32 data);
  void error_response(BusMasterPort& m);
  /// @p m's in-flight transaction record; nullptr when untraced.
  TxnRecord* traced(BusMasterPort& m);
  [[nodiscard]] u64 pending_idle_credit() const {
    const Cycle now = kernel().now();
    return now > next_expected_tick_ ? now - next_expected_tick_ : 0;
  }

  BusTimingConfig cfg_;
  std::vector<std::unique_ptr<BusMasterPort>> masters_;
  std::vector<Mapping> map_;

  // Grant state.
  BusMasterPort* granted_ = nullptr;
  u32 grant_addr_cycles_left_ = 0;
  u32 grant_beats_left_ = 0;   // beats allowed in this grant
  u32 wait_left_ = 0;
  bool beat_in_flight_ = false;
  u32 inflight_data_ = 0;      // read data waiting out wait states
  std::size_t rr_next_ = 0;    // round-robin pointer

  std::vector<WriteSnooper> snoopers_;
  fault::BusFaultHook* fault_hook_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  obs::TrackId track_ = 0;
  std::map<BusMasterPort*, TxnRecord> open_;  // in-flight traced txns
  u64 busy_cycles_ = 0;
  u64 idle_cycles_ = 0;
  Cycle next_expected_tick_ = 0;  // sleep-credit anchor for idle_cycles_

  // Batched burst window (see set_batching). While batch_active_, the
  // chunk's slave accesses have already run; the grant is held and the
  // deferred per-master accounting is applied by finish_batch() on the
  // tick at batch_end_ — the same cycle the per-beat loop would have
  // completed the final beat on.
  bool batching_enabled_ = true;
  bool batch_active_ = false;
  Cycle batch_end_ = 0;
  u32 batch_beats_ = 0;   // beats completed eagerly in this window
  u64 batch_waits_ = 0;   // wait states absorbed in this window
  std::exception_ptr batch_error_;  // slave throw, re-raised at its cycle
  u64 batched_chunks_ = 0;
  // Interned "<name>.batched_chunks" — the diagnostic above, published
  // to Stats so sweeps and traces report it without poking the object.
  sim::Stats::Handle h_batched_chunks_;
};

/// AMBA2 AHB-class bus: bursts up to 256 beats per grant, one address
/// phase per grant. This is the bus of the paper's Leon3 platform.
class AhbBus : public InterconnectModel {
 public:
  AhbBus(sim::Kernel& kernel, std::string name,
         Arbitration arb = Arbitration::kFixedPriority)
      : InterconnectModel(kernel, std::move(name),
                          BusTimingConfig{.address_phase_cycles = 1,
                                          .max_beats_per_grant = 256,
                                          .arbitration = arb}) {}
};

/// AXI4-Lite-class bus: no bursts — every word pays its own address
/// handshake. This is the paper's "future work" Zynq integration target,
/// included to demonstrate (and measure) the portability of the OCP's
/// bus-independent interface.
class AxiLiteBus : public InterconnectModel {
 public:
  AxiLiteBus(sim::Kernel& kernel, std::string name,
             Arbitration arb = Arbitration::kRoundRobin)
      : InterconnectModel(kernel, std::move(name),
                          BusTimingConfig{.address_phase_cycles = 1,
                                          .max_beats_per_grant = 1,
                                          .arbitration = arb}) {}
};

/// Full AXI4-class bus: bursts up to 256 beats, but the AR/AW handshake
/// costs two cycles per grant (valid/ready plus the slave's address
/// acceptance) — the memory-mapped fabric of a Zynq PS/PL boundary.
class Axi4Bus : public InterconnectModel {
 public:
  Axi4Bus(sim::Kernel& kernel, std::string name,
          Arbitration arb = Arbitration::kRoundRobin)
      : InterconnectModel(kernel, std::move(name),
                          BusTimingConfig{.address_phase_cycles = 2,
                                          .max_beats_per_grant = 256,
                                          .arbitration = arb}) {}
};

}  // namespace ouessant::bus
