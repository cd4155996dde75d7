#include "obs/tracer.hpp"

#include <fstream>

#include "obs/artifact.hpp"

namespace ouessant::obs {

namespace {

void append_args(std::string& out, const std::vector<Arg>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += json_escape(args[i].key);
    out += "\":";
    if (args[i].is_str) {
      out += '"';
      out += json_escape(args[i].s);
      out += '"';
    } else {
      out += std::to_string(args[i].u);
    }
  }
  out += '}';
}

}  // namespace

TrackId EventTracer::track(const std::string& name) {
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    if (track_names_[i] == name) return static_cast<TrackId>(i);
  }
  track_names_.push_back(name);
  return static_cast<TrackId>(track_names_.size() - 1);
}

void EventTracer::complete(TrackId t, std::string name, Cycle start,
                           Cycle end, std::vector<Arg> args) {
  record(Event{.ph = 'X',
                          .tid = t,
                          .ts = start,
                          .dur = end - start,
                          .flow_id = 0,
                          .name = std::move(name),
                          .args = std::move(args)});
}

void EventTracer::instant(TrackId t, std::string name,
                          std::vector<Arg> args) {
  record(Event{.ph = 'i',
                          .tid = t,
                          .ts = kernel_.now(),
                          .dur = 0,
                          .flow_id = 0,
                          .name = std::move(name),
                          .args = std::move(args)});
}

void EventTracer::counter(TrackId t, std::string name, u64 value) {
  record(Event{.ph = 'C',
                          .tid = t,
                          .ts = kernel_.now(),
                          .dur = 0,
                          .flow_id = 0,
                          .name = std::move(name),
                          .args = {arg("value", value)}});
}

void EventTracer::flow_begin(TrackId t, std::string name, u64 flow_id) {
  record(Event{.ph = 's',
                          .tid = t,
                          .ts = kernel_.now(),
                          .dur = 0,
                          .flow_id = flow_id,
                          .name = std::move(name),
                          .args = {}});
}

void EventTracer::flow_step(TrackId t, std::string name, u64 flow_id) {
  record(Event{.ph = 't',
                          .tid = t,
                          .ts = kernel_.now(),
                          .dur = 0,
                          .flow_id = flow_id,
                          .name = std::move(name),
                          .args = {}});
}

void EventTracer::flow_end(TrackId t, std::string name, u64 flow_id) {
  record(Event{.ph = 'f',
                          .tid = t,
                          .ts = kernel_.now(),
                          .dur = 0,
                          .flow_id = flow_id,
                          .name = std::move(name),
                          .args = {}});
}

std::vector<const EventTracer::Event*> EventTracer::chronological() const {
  std::vector<const Event*> out;
  out.reserve(events_.size());
  for (const Event& e : events_) out.push_back(&e);
  return out;
}

std::string EventTracer::to_json() const {
  std::string out;
  out.reserve(128 + events_.size() * 96);
  out += "{\n\"traceEvents\": [\n";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
         "\"args\":{\"name\":\"ouessant\"}}";
  for (std::size_t i = 0; i < track_names_.size(); ++i) {
    out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
    out += std::to_string(i);
    out += ",\"args\":{\"name\":\"";
    out += json_escape(track_names_[i]);
    out += "\"}}";
  }
  for (const Event* ep : chronological()) {
    const Event& e = *ep;
    out += ",\n{\"name\":\"";
    out += json_escape(e.name);
    out += "\",\"cat\":\"";
    out += (e.ph == 's' || e.ph == 't' || e.ph == 'f') ? "flow" : "sim";
    out += "\",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":0,\"tid\":";
    out += std::to_string(e.tid);
    out += ",\"ts\":";
    out += std::to_string(e.ts);
    switch (e.ph) {
      case 'X':
        out += ",\"dur\":";
        out += std::to_string(e.dur);
        break;
      case 'i':
        out += ",\"s\":\"t\"";  // instant scope: thread
        break;
      case 's':
      case 't':
      case 'f':
        out += ",\"id\":";
        out += std::to_string(e.flow_id);
        if (e.ph == 'f') out += ",\"bp\":\"e\"";  // bind to enclosing slice
        break;
      default:
        break;
    }
    if (!e.args.empty()) {
      out += ',';
      append_args(out, e.args);
    }
    out += '}';
  }
  out += "\n],\n\"displayTimeUnit\": \"ms\",\n";
  out += "\"otherData\": {\"schema\": \"ouessant.trace.v1\", "
         "\"timestamp_unit\": \"cycle\"}\n}\n";
  return out;
}

void EventTracer::write_json(const std::string& path) const {
  std::ofstream out = open_artifact(path, "EventTracer");
  out << to_json();
}

}  // namespace ouessant::obs
