#include "obs/flight.hpp"

#include <string>
#include <string_view>

namespace ouessant::obs {

FlightRecorder::FlightRecorder(sim::Kernel& kernel, std::size_t capacity)
    : EventTracer(kernel), capacity_(capacity) {
  if (capacity_ == 0) {
    throw SimError("FlightRecorder: capacity must be >= 1");
  }
  events_.reserve(capacity_);
}

void FlightRecorder::record(Event e) {
  if (events_.size() < capacity_) {
    events_.push_back(std::move(e));
    return;
  }
  events_[next_] = std::move(e);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<const EventTracer::Event*> FlightRecorder::chronological() const {
  std::vector<const Event*> out;
  out.reserve(events_.size());
  // Once full, the oldest retained event sits at the write cursor.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(&events_[(next_ + i) % events_.size()]);
  }
  return out;
}

void FlightRecorder::trigger(const std::string& reason) {
  instant(track("flight"), "flight_trigger", {arg("reason", reason)});
  if (triggered_) return;  // keep the earliest fault's context
  triggered_ = true;
  reason_ = reason;
  trigger_cycle_ = kernel().now();
}

void FlightRecorder::state(snap::Fields& f) {
  f.expect<u64>("capacity", capacity_);
  f.field_as<u64>("next", next_);
  if (next_ >= capacity_) f.fail("ring cursor past its capacity");
  f.field("dropped", dropped_);
  f.field("triggered", triggered_);
  f.field("reason", reason_);
  f.field("trigger_cycle", trigger_cycle_);
  // The ring travels as one bytes field holding its own field stream.
  std::vector<u8> ring;
  if (f.saving()) {
    snap::StateWriter inner;
    snap::Fields rf(inner);
    ring_state(rf);
    ring = inner.take();
  }
  f.field("ring", ring);
  if (f.restoring()) {
    snap::StateReader inner(std::move(ring), "obs.flight");
    snap::Fields rf(inner);
    ring_state(rf);
    inner.expect_end();
  }
}

void FlightRecorder::ring_state(snap::Fields& f) {
  // Tracks were interned eagerly when the stack attached this recorder
  // (same-stack restore rule), in the same deterministic order the
  // saved stack used — verify the interning agrees, re-interning any
  // tail the target has not reached yet.
  std::vector<std::string> tracks = track_names();
  f.list<u64>("tracks", tracks, [&f](std::string& t) { f.field("t", t); });
  for (std::size_t i = 0; f.restoring() && i < tracks.size(); ++i) {
    if (track(tracks[i]) != static_cast<TrackId>(i)) {
      f.fail("track interning order mismatch on restore (was the "
             "recorder attached to a different stack?)");
    }
  }
  // An event the tracer could not have recorded is refused here: to_json
  // writes the phase byte raw and indexes the tracks by tid.
  f.list<u64>("events", events_, [&f, &tracks](Event& e) {
    f.field_as<u8>("ph", e.ph);
    if (std::string_view("XiCstf").find(e.ph) == std::string_view::npos) {
      f.fail("'ph' is byte " + std::to_string(static_cast<u8>(e.ph)) +
             ", a phase the tracer never emits");
    }
    f.field("tid", e.tid);
    if (e.tid >= tracks.size()) {
      f.fail("'tid' is " + std::to_string(e.tid) + ", past the " +
             std::to_string(tracks.size()) + " tracks");
    }
    f.field("ts", e.ts);
    f.field("dur", e.dur);
    f.field("flow", e.flow_id);
    f.field("name", e.name);
    f.list<u64>("nargs", e.args, [&f](Arg& a) {
      f.field("k", a.key);
      f.field("is_str", a.is_str);
      f.field("u", a.u);
      f.field("s", a.s);
    });
  });
  if (events_.size() > capacity_) f.fail("ring holds more events than fit");
  // The cursor moves only once the ring is full.
  if (next_ != 0 && events_.size() < capacity_) {
    f.fail("'next' is " + std::to_string(next_) + " on a ring holding " +
           std::to_string(events_.size()) + " of its " +
           std::to_string(capacity_) + " events");
  }
}

}  // namespace ouessant::obs
