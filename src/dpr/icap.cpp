#include "dpr/icap.hpp"

#include <algorithm>

namespace ouessant::dpr {

namespace {
const bus::MasterStats kZeroStats{};
}  // namespace

IcapPort::IcapPort(sim::Kernel& kernel, std::string name,
                   bus::InterconnectModel& bus, IcapPortConfig cfg)
    : sim::Component(kernel, std::move(name)),
      cfg_(cfg),
      cycles_per_word_(std::max<u32>(1, 4 / std::max<u32>(
                                            1, cfg.icap.bytes_per_cycle))) {
  if (cfg_.icap.bytes_per_cycle == 0) {
    throw ConfigError("IcapPort " + this->name() + ": zero ICAP rate");
  }
  if (cfg_.burst_words == 0) {
    throw ConfigError("IcapPort " + this->name() + ": zero burst length");
  }
  if (cfg_.mode == IcapMode::kBusMaster) {
    port_ = &bus.connect_master(this->name(), cfg_.master_priority);
    port_->wake_on_complete(*this);
  }
}

const bus::MasterStats& IcapPort::master_stats() const {
  return port_ != nullptr ? port_->stats() : kZeroStats;
}

void IcapPort::set_tracer(obs::EventTracer* tracer) {
  tracer_ = tracer;
  if (tracer_ != nullptr) track_ = tracer_->track("dpr." + name());
}

void IcapPort::start_load(Addr src, u32 bytes, bool from_cache, u32 token,
                          std::string label) {
  if (busy()) {
    throw SimError("IcapPort " + name() +
                   ": load started while streaming (one configuration "
                   "port — serialize swaps)");
  }
  if (bytes == 0 || bytes % 4 != 0) {
    throw SimError("IcapPort " + name() + ": bitstream length " +
                   std::to_string(bytes) + " is not a word multiple");
  }
  src_ = src;
  bytes_ = bytes;
  words_ = bytes / 4;
  words_done_ = 0;
  from_cache_ = from_cache;
  token_ = token;
  label_ = std::move(label);
  load_begin_ = kernel().now();
  next_accept_ = 0;
  if (cfg_.mode == IcapMode::kBusMaster && !from_cache) {
    state_ = State::kStream;
    wake();  // the next tick issues the first burst
  } else {
    // Cache-fed (or free-mode) load: full ICAP rate, no bus traffic, a
    // bytes/rate countdown.
    state_ = State::kDirect;
    phase_end_ = kernel().now() + stream_cycles_for(bytes);
    wake_at(phase_end_);
  }
}

bool IcapPort::beat_space() const {
  return cycles_per_word_ == 1 || kernel().now() >= next_accept_;
}

void IcapPort::put_beat(u32 /*data*/) {
  // Bitstream words configure frames; the simulation needs only their
  // count. A narrow ICAP (bytes_per_cycle < 4) back-pressures the bus.
  ++words_done_;
  if (cycles_per_word_ > 1) {
    next_accept_ = kernel().now() + cycles_per_word_;
  }
}

u32 IcapPort::bulk_space(u32 want) const {
  // Full-width ICAP keeps up with one word per cycle indefinitely, so
  // the batched-burst fast path may drain a whole chunk eagerly. A
  // narrower port must stall the bus per beat — exact timing needs the
  // per-beat path.
  return cycles_per_word_ == 1 ? want : 0;
}

void IcapPort::issue_chunk() {
  const u32 chunk = std::min(cfg_.burst_words, words_ - words_done_);
  port_->start_read_stream(src_ + static_cast<Addr>(words_done_) * 4, chunk,
                           *this);
}

void IcapPort::enter_overhead() {
  state_ = State::kOverhead;
  phase_end_ = kernel().now() + cfg_.icap.swap_overhead_cycles;
  if (cfg_.icap.swap_overhead_cycles == 0) {
    complete_load();
  } else {
    wake_at(phase_end_);
  }
}

void IcapPort::complete_load() {
  const Cycle now = kernel().now();
  busy_cycles_total_ += now - load_begin_;
  overhead_cycles_total_ += cfg_.icap.swap_overhead_cycles;
  if (state_ == State::kOverhead && (from_cache_ || port_ == nullptr)) {
    direct_stream_cycles_ += stream_cycles_for(bytes_);
  }
  bytes_streamed_ += bytes_;
  ++loads_;
  state_ = State::kIdle;
  if (tracer_ != nullptr) {
    tracer_->complete(track_, "swap", load_begin_, now,
                      {obs::arg("target", label_), obs::arg("bytes", u64{bytes_}),
                       obs::arg("cached", u64{from_cache_})});
  }
  if (done_fn_) done_fn_(token_);
}

void IcapPort::tick_compute() {
  switch (state_) {
    case State::kIdle:
      return;
    case State::kStream:
      if (port_->busy()) return;  // burst in flight; completion wakes us
      if (port_->faulted()) {
        throw SimError("IcapPort " + name() +
                       ": bus error while fetching a bitstream at cycle " +
                       std::to_string(kernel().now()));
      }
      if (words_done_ < words_) {
        issue_chunk();
      } else {
        enter_overhead();
      }
      return;
    case State::kDirect:
      if (kernel().now() < phase_end_) return;
      enter_overhead();
      return;
    case State::kOverhead:
      if (kernel().now() < phase_end_) return;
      complete_load();
      return;
  }
}

bool IcapPort::is_quiescent() const {
  switch (state_) {
    case State::kIdle:
      return true;  // start_load wakes us
    case State::kStream:
      // Asleep while the burst runs (the port's completion wake ends
      // that); awake on the hand-off ticks that issue the next chunk.
      return port_->busy();
    case State::kDirect:
    case State::kOverhead:
      return true;  // wake_at(phase_end_) is armed
  }
  return true;
}

void IcapPort::state(snap::Fields& f) {
  f.field_as<u8>("state", state_, State::kOverhead);
  f.field_as<u64>("src", src_);
  f.field("words", words_);
  f.field("words_done", words_done_);
  f.field("bytes", bytes_);
  f.field("from_cache", from_cache_);
  f.field("token", token_);
  f.field("label", label_);
  f.field("load_begin", load_begin_);
  f.field("phase_end", phase_end_);
  f.field("next_accept", next_accept_);
  f.field("loads", loads_);
  f.field("bytes_streamed", bytes_streamed_);
  f.field("busy_cycles_total", busy_cycles_total_);
  f.field("direct_stream_cycles", direct_stream_cycles_);
  f.field("overhead_cycles_total", overhead_cycles_total_);
  if (!f.restoring()) return;
  if (state_ == State::kStream && port_ != nullptr && port_->busy()) {
    // The bus restored the in-flight burst with a sink-attached flag;
    // re-select ourselves as that sink (wiring is not serialized).
    port_->restore_stream(this, nullptr);
  }
}

}  // namespace ouessant::dpr
