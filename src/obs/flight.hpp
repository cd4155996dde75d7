// Flight recorder: bounded ring of recent trace events, dumped on
// fault (docs/observability.md "Fleet-scale observability").
//
// The fleet cannot afford full traces on every shard, but when a shard
// misbehaves — the dispatcher quarantines a worker or the watchdog
// rescues a hung completion — the events that matter are precisely the
// ones that JUST happened. The flight recorder is an EventTracer whose
// record() keeps only the most recent `capacity` events in a circular
// buffer: attach it to the full-fidelity hooks (bus, controllers,
// RACs), let it overwrite forever at O(1) per event, and when the fault
// layer fires a trigger, dump the ring as an ordinary Chrome-trace
// file — a post-mortem deep trace costing memory only, never sim time.
//
// The ring is snapshot-carried (save_state/restore_state), so a
// warm-booted clone resumes with its template's recent history and a
// restored shard's post-mortem window spans the restore point.
#pragma once

#include <string>

#include "obs/tracer.hpp"
#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::obs {

class FlightRecorder final : public EventTracer,
                             public snap::Stateful<FlightRecorder> {
 public:
  /// @p capacity: maximum events retained (the post-mortem window).
  FlightRecorder(sim::Kernel& kernel, std::size_t capacity);

  /// Events overwritten since the ring filled.
  [[nodiscard]] u64 dropped() const { return dropped_; }

  /// Mark the ring "worth dumping": records a `flight_trigger` instant
  /// (with @p reason) on the "flight" track and latches the trigger so
  /// the owning layer knows to write the file out. Repeat triggers
  /// keep the first reason/cycle (the earliest fault is the
  /// interesting one) but still land in the ring.
  void trigger(const std::string& reason);

  [[nodiscard]] bool triggered() const { return triggered_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

  // -- snapshot field list (docs/fleet.md) -------------------------------
  void state(snap::Fields& f);

 protected:
  /// Circular overwrite: O(1) per event regardless of capacity.
  void record(Event e) override;
  /// Un-rotate the ring so to_json() serializes oldest-first.
  [[nodiscard]] std::vector<const Event*> chronological() const override;

 private:
  /// The ring's own field stream: track names, then events.
  void ring_state(snap::Fields& f);

  std::size_t capacity_;
  std::size_t next_ = 0;  ///< ring write cursor (valid once full)
  u64 dropped_ = 0;
  bool triggered_ = false;
  std::string reason_;
  Cycle trigger_cycle_ = 0;
};

}  // namespace ouessant::obs
