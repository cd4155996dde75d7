#include "obs/trace_reader.hpp"

#include "obs/artifact.hpp"

namespace ouessant::obs {

namespace {

/// Track ids index ParsedTrace::track_names; bound them so a hostile
/// metadata record cannot demand a multi-gigabyte name table.
constexpr u64 kMaxTid = u64{1} << 20;

ParsedEvent::Value parse_arg_value(JsonCursor& cur) {
  ParsedEvent::Value v;
  if (cur.peek() == '"') {
    v.is_str = true;
    v.s = cur.string();
  } else {
    v.u = cur.uint();
  }
  return v;
}

/// Parse one event object; returns false (skipping it) for metadata
/// records after folding thread_name records into @p track_names.
bool parse_event(JsonCursor& cur, ParsedEvent& ev,
                 std::vector<std::string>& track_names) {
  std::string meta_name;  // args.name of an 'M' record
  cur.object([&](const std::string& key) {
    if (key == "name") {
      ev.name = cur.string();
    } else if (key == "ph") {
      const std::string ph = cur.string();
      ev.ph = ph.empty() ? '?' : ph[0];
    } else if (key == "tid") {
      ev.tid = static_cast<u32>(cur.uint(kMaxTid));
    } else if (key == "ts") {
      ev.ts = cur.uint();
    } else if (key == "dur") {
      ev.dur = cur.uint();
    } else if (key == "id") {
      ev.id = cur.uint();
    } else if (key == "args") {
      cur.object([&](const std::string& akey) {
        ParsedEvent::Value v = parse_arg_value(cur);
        if (akey == "name" && v.is_str) meta_name = v.s;
        ev.args.emplace(akey, std::move(v));
      });
    } else {
      cur.skip_value();
    }
  });
  if (ev.ph == 'M') {
    if (ev.name == "thread_name") {
      if (track_names.size() <= ev.tid) track_names.resize(ev.tid + 1);
      track_names[ev.tid] = meta_name;
    }
    return false;
  }
  return true;
}

}  // namespace

std::string ParsedTrace::track_name(u32 tid) const {
  if (tid < track_names.size() && !track_names[tid].empty()) {
    return track_names[tid];
  }
  return "track" + std::to_string(tid);
}

ParsedTrace parse_trace(const std::string& json) {
  ParsedTrace trace;
  JsonCursor cur(json, "trace parse error");
  bool saw_events = false;
  cur.object([&](const std::string& key) {
    if (key != "traceEvents") {
      cur.skip_value();
      return;
    }
    saw_events = true;
    cur.array([&] {
      ParsedEvent ev;
      if (parse_event(cur, ev, trace.track_names)) {
        trace.events.push_back(std::move(ev));
      }
    });
  });
  cur.finish();
  if (!saw_events) cur.fail("no traceEvents array");
  return trace;
}

ParsedTrace read_trace(const std::string& path) {
  return parse_trace(read_artifact(path, "trace reader"));
}

}  // namespace ouessant::obs
