#include "bus/interconnect.hpp"

#include <algorithm>

#include "snap/state.hpp"

namespace ouessant::bus {

InterconnectModel::InterconnectModel(sim::Kernel& kernel, std::string name,
                                     BusTimingConfig cfg)
    : sim::Component(kernel, std::move(name)), cfg_(cfg) {
  if (cfg_.max_beats_per_grant == 0) {
    throw ConfigError("InterconnectModel: max_beats_per_grant must be >= 1");
  }
  h_batched_chunks_ =
      this->kernel().stats().intern(this->name() + ".batched_chunks");
}

BusMasterPort& InterconnectModel::connect_master(const std::string& name,
                                                 int priority) {
  masters_.push_back(std::make_unique<BusMasterPort>(name, priority));
  BusMasterPort& p = *masters_.back();
  p.bus_ = this;
  p.owner_ = this;
  p.h_beats_ = kernel().stats().intern(this->name() + "." + name + ".beats");
  p.h_transactions_ =
      kernel().stats().intern(this->name() + "." + name + ".transactions");
  return p;
}

void InterconnectModel::connect_slave(BusSlave& slave, Addr base, u32 size) {
  if (size == 0 || base % 4 != 0 || size % 4 != 0) {
    throw ConfigError("connect_slave(" + slave.slave_name() +
                      "): bad base/size");
  }
  // The decode window must fit the 32-bit address space: a region that
  // wraps past 2^32 would make decode()'s `addr - base < size` test match
  // addresses the mapping never intended to claim.
  if (static_cast<u64>(base) + size > (u64{1} << 32)) {
    throw ConfigError("connect_slave(" + slave.slave_name() +
                      "): region wraps the 32-bit address space");
  }
  for (const auto& m : map_) {
    const u64 a0 = base, a1 = static_cast<u64>(base) + size;
    const u64 b0 = m.base, b1 = static_cast<u64>(m.base) + m.size;
    if (a0 < b1 && b0 < a1) {
      throw ConfigError("connect_slave(" + slave.slave_name() +
                        "): overlaps " + m.slave->slave_name());
    }
  }
  map_.push_back({base, size, &slave});
}

BusSlave& InterconnectModel::decode(Addr addr) const {
  for (const auto& m : map_) {
    if (addr >= m.base && addr - m.base < m.size) return *m.slave;
  }
  throw SimError(name() + ": bus error (no slave at " + hex(addr) + ")");
}

bool InterconnectModel::is_mapped(Addr addr) const {
  return std::any_of(map_.begin(), map_.end(), [addr](const Mapping& m) {
    return addr >= m.base && addr - m.base < m.size;
  });
}

BusMasterPort* InterconnectModel::select_master() {
  if (masters_.empty()) return nullptr;
  if (cfg_.arbitration == Arbitration::kRoundRobin) {
    for (std::size_t i = 0; i < masters_.size(); ++i) {
      const std::size_t idx = (rr_next_ + i) % masters_.size();
      if (masters_[idx]->active_) {
        rr_next_ = (idx + 1) % masters_.size();
        return masters_[idx].get();
      }
    }
    return nullptr;
  }
  BusMasterPort* best = nullptr;
  for (const auto& m : masters_) {
    if (m->active_ && (best == nullptr || m->priority() < best->priority())) {
      best = m.get();
    }
  }
  return best;
}

void InterconnectModel::set_tracer(obs::EventTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) track_ = tracer_->track("bus." + name());
}

MasterStats InterconnectModel::master_totals() const {
  MasterStats total;
  for (const auto& m : masters_) {
    total.transactions += m->stats().transactions;
    total.beats += m->stats().beats;
    total.wait_cycles += m->stats().wait_cycles;
    total.stall_cycles += m->stats().stall_cycles;
    total.grant_cycles += m->stats().grant_cycles;
  }
  return total;
}

TxnRecord* InterconnectModel::traced(BusMasterPort& m) {
  if (tracer_ == nullptr) return nullptr;
  const auto it = open_.find(&m);
  return it == open_.end() ? nullptr : &it->second;
}

bool InterconnectModel::is_quiescent() const {
  if (batch_active_) return true;  // window end is armed in the wake heap
  if (granted_ != nullptr) return false;
  return std::none_of(masters_.begin(), masters_.end(),
                      [](const auto& m) { return m->active_; });
}

void InterconnectModel::tick_compute() {
  if (batch_active_) {
    // Mid-window ticks (another master's begin() woke us) are no-ops:
    // per-beat, that master would simply wait out the grant too. The
    // accounting below must not run — the window already owns these
    // cycles.
    if (kernel().now() < batch_end_) return;
    finish_batch();
    return;
  }
  // Credit cycles spent clock-gated: the bus only sleeps while idle, so
  // every skipped cycle is an idle cycle the seed sweep would have
  // counted one by one.
  idle_cycles_ += pending_idle_credit();
  next_expected_tick_ = kernel().now() + 1;
  if (granted_ == nullptr) {
    granted_ = select_master();
    if (granted_ == nullptr) {
      ++idle_cycles_;
      return;
    }
    grant_addr_cycles_left_ = cfg_.address_phase_cycles;
    grant_beats_left_ = std::min(cfg_.max_beats_per_grant, granted_->beats_);
    if (tracer_ != nullptr && open_.find(granted_) == open_.end()) {
      // First grant for this transaction: open its record.
      open_[granted_] = TxnRecord{.start = kernel().now(),
                                  .end = 0,
                                  .master = granted_->name(),
                                  .addr = granted_->addr_,
                                  .write = granted_->write_,
                                  .beats = granted_->beats_};
    }
    if (try_batch_chunk()) return;
  }
  ++busy_cycles_;
  BusMasterPort& m = *granted_;

  if (grant_addr_cycles_left_ > 0) {
    --grant_addr_cycles_left_;
    ++m.stats_.grant_cycles;
    return;
  }

  if (wait_left_ > 0) {
    --wait_left_;
    ++m.stats_.wait_cycles;
    if (TxnRecord* t = traced(m)) ++t->waits;
    if (wait_left_ == 0 && beat_in_flight_) {
      complete_beat(inflight_data_);
    }
    return;
  }

  // Injected ERROR response: terminates the transaction like a slave
  // exception below, but non-fatally — the master observes faulted()
  // and its OCP escalates through the ERR status bit instead of the
  // simulation aborting. The error cycle counts as a wait state to keep
  // beats+grants+waits+stalls == busy_cycles.
  if (fault_hook_ != nullptr &&
      fault_hook_->beat_error(m.name_, m.addr_, m.write_, kernel().now())) {
    ++m.stats_.wait_cycles;
    if (TxnRecord* t = traced(m)) ++t->waits;
    error_response(m);
    return;
  }

  // Issue the next data beat. A slave exception is the model's ERROR
  // response: it terminates the transfer (so the master port is reusable)
  // and propagates to the simulation driver.
  try {
    if (m.write_) {
      u32 data = 0;
      if (m.source_ != nullptr) {
        if (!m.source_->beat_ready()) {
          ++m.stats_.stall_cycles;
          if (TxnRecord* t = traced(m)) ++t->stalls;
          return;
        }
        data = m.source_->take_beat();
      } else {
        data = m.wdata_[m.wdata_index_];
      }
      const u32 ws = decode(m.addr_).write_word(m.addr_, data);
      if (ws > 0) {
        wait_left_ = ws;
        beat_in_flight_ = true;
        inflight_data_ = 0;
      } else {
        complete_beat(0);
      }
    } else {
      if (m.sink_ != nullptr && !m.sink_->beat_space()) {
        ++m.stats_.stall_cycles;
        if (TxnRecord* t = traced(m)) ++t->stalls;
        return;
      }
      const SlaveResponse resp = decode(m.addr_).read_word(m.addr_);
      if (resp.wait_states > 0) {
        wait_left_ = resp.wait_states;
        beat_in_flight_ = true;
        inflight_data_ = resp.data;
      } else {
        complete_beat(resp.data);
      }
    }
  } catch (...) {
    m.active_ = false;
    granted_ = nullptr;
    wait_left_ = 0;
    beat_in_flight_ = false;
    open_.erase(&m);
    if (m.completion_waiter_ != nullptr) m.completion_waiter_->wake();
    throw;
  }
}

bool InterconnectModel::try_batch_chunk() {
  // Observers see per-beat state: any armed instrument keeps the
  // per-beat loop (passivity discipline — instrumented runs may differ
  // in host behavior, unarmed runs stay bit-identical either way).
  if (!batching_enabled_ || tracer_ != nullptr || fault_hook_ != nullptr ||
      !snoopers_.empty()) {
    return false;
  }
  if (!kernel().gating() || kernel().has_samplers()) return false;
  // cost >= 2 below needs at least one address-phase cycle, so the
  // window's final tick is strictly after the grant tick.
  if (cfg_.address_phase_cycles == 0) return false;
  BusMasterPort& m = *granted_;
  const u32 chunk = grant_beats_left_;
  // Every beat of the chunk must decode into one slave mapping — a hole
  // mid-chunk must raise its bus error on the exact per-beat cycle.
  const Mapping* map = nullptr;
  for (const auto& mm : map_) {
    if (m.addr_ >= mm.base && static_cast<u64>(m.addr_) + 4ull * chunk <=
                                  static_cast<u64>(mm.base) + mm.size) {
      map = &mm;
      break;
    }
  }
  if (map == nullptr) return false;
  // Only pure-storage slaves may run their accesses early; a register
  // file's side effects (start bits, IRQ acks) must land on the exact
  // per-beat cycle.
  if (!map->slave->batchable_slave()) return false;
  // Streamed endpoints must promise the whole chunk without a stall.
  if (m.write_ && m.source_ != nullptr && m.source_->bulk_ready(chunk) < chunk) {
    return false;
  }
  if (!m.write_ && m.sink_ != nullptr && m.sink_->bulk_space(chunk) < chunk) {
    return false;
  }

  // Run the chunk's slave accesses eagerly, accumulating the cycles the
  // per-beat loop would spend: one address phase per grant, then one
  // cycle per beat plus its wait states. A slave throw lands on the
  // beat-issue cycle (which per-beat counts busy before throwing).
  u64 cost = cfg_.address_phase_cycles;
  batch_beats_ = 0;
  batch_waits_ = 0;
  batch_error_ = nullptr;
  for (u32 i = 0; i < chunk; ++i) {
    const Addr a = m.addr_ + 4u * batch_beats_;
    try {
      if (m.write_) {
        u32 data = 0;
        if (m.source_ != nullptr) {
          m.source_->bulk_take(1, &data);  // consumed before the slave
                                           // access, as take_beat() is
        } else {
          data = m.wdata_[m.wdata_index_ + batch_beats_];
        }
        const u32 ws = map->slave->write_word(a, data);
        batch_waits_ += ws;
        cost += 1 + ws;
      } else {
        const SlaveResponse resp = map->slave->read_word(a);
        if (m.sink_ != nullptr) {
          m.sink_->bulk_put(1, &resp.data);
        } else {
          m.rdata_.push_back(resp.data);
        }
        batch_waits_ += resp.wait_states;
        cost += 1 + resp.wait_states;
      }
      ++batch_beats_;
    } catch (...) {
      batch_error_ = std::current_exception();
      cost += 1;
      break;
    }
  }
  busy_cycles_ += cost;
  batch_active_ = true;
  batch_end_ = kernel().now() + cost - 1;
  next_expected_tick_ = batch_end_ + 1;
  ++batched_chunks_;
  kernel().stats().add(h_batched_chunks_);
  wake_at(batch_end_);
  return true;
}

void InterconnectModel::finish_batch() {
  batch_active_ = false;
  next_expected_tick_ = kernel().now() + 1;
  BusMasterPort& m = *granted_;
  m.stats_.grant_cycles += cfg_.address_phase_cycles;
  m.stats_.wait_cycles += batch_waits_;
  m.stats_.beats += batch_beats_;
  if (batch_beats_ > 0) kernel().stats().add(m.h_beats_, batch_beats_);
  if (m.write_ && m.source_ == nullptr) m.wdata_index_ += batch_beats_;
  m.addr_ += 4u * batch_beats_;
  m.beats_ -= batch_beats_;
  grant_beats_left_ -= batch_beats_;
  if (batch_error_ != nullptr) {
    // Replay the per-beat loop's catch: deactivate, release, wake, and
    // re-raise on the very cycle the per-beat slave access would throw.
    std::exception_ptr err = batch_error_;
    batch_error_ = nullptr;
    m.active_ = false;
    granted_ = nullptr;
    wait_left_ = 0;
    beat_in_flight_ = false;
    open_.erase(&m);
    if (m.completion_waiter_ != nullptr) m.completion_waiter_->wake();
    std::rethrow_exception(err);
  }
  if (m.beats_ == 0) {
    m.active_ = false;
    if (m.completion_waiter_ != nullptr) m.completion_waiter_->wake();
    ++m.stats_.transactions;
    kernel().stats().add(m.h_transactions_);
    granted_ = nullptr;
  } else if (grant_beats_left_ == 0) {
    // Burst split: release and re-arbitrate next cycle, as per-beat does.
    granted_ = nullptr;
  }
}

void InterconnectModel::state(snap::Fields& f) {
  if (f.saving() && batch_error_ != nullptr) {
    throw snap::SnapshotError(
        name() + ": cannot snapshot while a batched slave error is "
                 "pending delivery (advance past the window first)");
  }
  // Grant window. The granted master is recorded by port index; -1
  // (encoded as ~0) means the bus is idle.
  u32 granted_idx = ~u32{0};
  for (std::size_t i = 0; i < masters_.size(); ++i) {
    if (masters_[i].get() == granted_) granted_idx = static_cast<u32>(i);
  }
  f.field("granted", granted_idx);
  f.field("grant_addr_cycles_left", grant_addr_cycles_left_);
  f.field("grant_beats_left", grant_beats_left_);
  f.field("wait_left", wait_left_);
  f.field("beat_in_flight", beat_in_flight_);
  f.field("inflight_data", inflight_data_);
  f.expect<u64>("txn_start", 0);
  f.field_as<u64>("rr_next", rr_next_);
  f.field("busy_cycles", busy_cycles_);
  f.field("idle_cycles", idle_cycles_);
  f.field("next_expected_tick", next_expected_tick_);

  // Open batched-burst window (slave accesses already ran; the deferred
  // accounting re-applies on the tick at batch_end).
  f.field("batch_active", batch_active_);
  f.field("batch_end", batch_end_);
  f.field("batch_beats", batch_beats_);
  f.field("batch_waits", batch_waits_);
  f.field("batched_chunks", batched_chunks_);

  f.expect<u32>("master_count", masters_.size());
  for (const auto& mp : masters_) {
    BusMasterPort& m = *mp;
    f.expect<std::string>("port", m.name_);
    f.field("active", m.active_);
    f.field("faulted", m.faulted_);
    f.field("addr", m.addr_);
    f.field("write", m.write_);
    f.field("beats", m.beats_);
    f.field("wdata", m.wdata_);
    f.field_as<u64>("wdata_index", m.wdata_index_);
    f.field("rdata", m.rdata_);
    // Streamed endpoints are wiring: record attachment only. A restore
    // clears them; the issuing controller's restore runs later in the
    // component walk and reattaches via restore_stream().
    bool has_sink = m.sink_ != nullptr;
    bool has_source = m.source_ != nullptr;
    f.field("has_sink", has_sink);
    f.field("has_source", has_source);
    f.field("txns", m.stats_.transactions);
    f.field("beats_total", m.stats_.beats);
    f.field("wait_cycles", m.stats_.wait_cycles);
    f.field("stall_cycles", m.stats_.stall_cycles);
    f.field("grant_cycles", m.stats_.grant_cycles);
  }
  if (!f.restoring()) return;
  if (granted_idx != ~u32{0} && granted_idx >= masters_.size()) {
    f.fail("granted master index " + std::to_string(granted_idx) +
           " out of range");
  }
  granted_ = granted_idx == ~u32{0} ? nullptr : masters_[granted_idx].get();
  batch_error_ = nullptr;
  for (const auto& mp : masters_) {
    mp->sink_ = nullptr;
    mp->source_ = nullptr;
  }
  // Host telemetry (open_, tracer, snoopers) is not snapshot state: a
  // restored bus starts with no transaction in flight on its track.
  open_.clear();
}

void InterconnectModel::error_response(BusMasterPort& m) {
  m.active_ = false;
  m.faulted_ = true;
  m.sink_ = nullptr;
  m.source_ = nullptr;
  if (const TxnRecord* r = traced(m)) {
    tracer_->complete(
        track_, "err", r->start, kernel().now(),
        {obs::arg("master", r->master), obs::arg("addr", u64{r->addr}),
         obs::arg("beats", u64{r->beats})});
    open_.erase(&m);
  }
  granted_ = nullptr;
  wait_left_ = 0;
  beat_in_flight_ = false;
  if (m.completion_waiter_ != nullptr) m.completion_waiter_->wake();
}

void InterconnectModel::abort_master(BusMasterPort& m) {
  if (!m.active_) return;
  if (granted_ == &m) {
    if (batch_active_) {
      // An abort can only be issued by host code or another component,
      // neither of which can observe a batch window mid-flight (the
      // aborting master's controller sleeps through it, and host resets
      // arrive over this very bus). Defensively settle the window's
      // already-executed beats before dropping the grant, so the
      // per-master stats never lose accesses the slaves did see.
      batch_active_ = false;
      m.stats_.grant_cycles += cfg_.address_phase_cycles;
      m.stats_.wait_cycles += batch_waits_;
      m.stats_.beats += batch_beats_;
      if (batch_beats_ > 0) kernel().stats().add(m.h_beats_, batch_beats_);
      if (m.write_ && m.source_ == nullptr) m.wdata_index_ += batch_beats_;
      m.addr_ += 4u * batch_beats_;
      m.beats_ -= batch_beats_;
      batch_error_ = nullptr;
    }
    granted_ = nullptr;
    grant_addr_cycles_left_ = 0;
    wait_left_ = 0;
    beat_in_flight_ = false;
  }
  m.active_ = false;
  m.faulted_ = false;
  m.sink_ = nullptr;
  m.source_ = nullptr;
  open_.erase(&m);
  if (m.completion_waiter_ != nullptr) m.completion_waiter_->wake();
}

void BusMasterPort::abort() {
  if (owner_ != nullptr) owner_->abort_master(*this);
}

void InterconnectModel::complete_beat(u32 data) {
  BusMasterPort& m = *granted_;
  if (m.write_) {
    for (const auto& snoop : snoopers_) snoop(m.addr_, m);
  }
  if (!m.write_) {
    if (m.sink_ != nullptr) {
      m.sink_->put_beat(data);
    } else {
      m.rdata_.push_back(data);
    }
  } else if (m.source_ == nullptr) {
    ++m.wdata_index_;
  }
  ++m.stats_.beats;
  kernel().stats().add(m.h_beats_);
  m.addr_ += 4;
  --m.beats_;
  --grant_beats_left_;
  wait_left_ = 0;
  beat_in_flight_ = false;

  if (m.beats_ == 0) {
    m.active_ = false;
    if (m.completion_waiter_ != nullptr) m.completion_waiter_->wake();
    ++m.stats_.transactions;
    kernel().stats().add(m.h_transactions_);
    if (const TxnRecord* r = traced(m)) {
      tracer_->complete(
          track_, r->write ? "wr" : "rd", r->start, kernel().now(),
          {obs::arg("master", r->master), obs::arg("addr", u64{r->addr}),
           obs::arg("beats", u64{r->beats}), obs::arg("waits", u64{r->waits}),
           obs::arg("stalls", u64{r->stalls})});
      open_.erase(&m);
    }
    granted_ = nullptr;
  } else if (grant_beats_left_ == 0) {
    // Burst split / per-beat protocols: release and re-arbitrate.
    granted_ = nullptr;
  }
}

}  // namespace ouessant::bus
