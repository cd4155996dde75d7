#include "sim/kernel.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "snap/snapshot.hpp"
#include "snap/state.hpp"

namespace ouessant::sim {

namespace {
constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

constexpr u64 slot_bit(std::size_t slot) { return u64{1} << (slot & 63); }

struct HeapOrder {
  bool operator()(const std::pair<Cycle, Component*>& a,
                  const std::pair<Cycle, Component*>& b) const {
    return a.first > b.first;  // min-heap on wake cycle
  }
};

/// The kernel section: gathered from a live kernel before a save, and
/// read and checked in full before a restore changes the kernel.
struct KernelImage {
  Cycle cycle = 0;
  std::vector<std::pair<std::string, u64>> stats;        ///< key, value
  std::vector<std::pair<std::string, bool>> components;  ///< name, awake
  std::vector<std::pair<Cycle, std::string>> timers;     ///< due, component

  void state(snap::Fields& f) {
    f.field("cycle", cycle);
    f.list("stat_count", stats, [&f](auto& s) {
      f.field("stat", s.first);
      f.field("value", s.second);
    });
    f.list("component_count", components, [&f](auto& c) {
      f.field("component", c.first);
      f.field("awake", c.second);
    });
    f.list("timer_count", timers, [&f](auto& t) {
      f.field("due", t.first);
      f.field("component", t.second);
    });
  }
};
}  // namespace

Component::Component(Kernel& kernel, std::string name)
    : kernel_(kernel), name_(std::move(name)) {
  kernel_.add(this);
}

Component::~Component() { kernel_.remove(this); }

void Kernel::add(Component* c) {
  if (in_tick_) {
    // The registry is fixed while a sweep walks it. The half-built object
    // never joins, and the throw aborts the cycle like a component fault.
    throw SimError("Kernel: component '" + c->name() +
                   "' constructed during a tick (the registry is fixed "
                   "while the kernel ticks)");
  }
  c->slot_ = static_cast<u32>(components_.size());
  components_.push_back(c);
  if ((c->slot_ & 63) == 0) awake_bits_.push_back(0);
  // Components are born awake; they may sleep after a tick.
  awake_bits_[c->slot_ >> 6] |= slot_bit(c->slot_);
}

void Kernel::remove(Component* c) {
  if (in_tick_) {
    // A destructor cannot throw, and a sweep over a shrinking registry
    // would tick a dangling pointer: refuse as loudly as add() does.
    std::fprintf(stderr,
                 "Kernel: component '%s' destroyed during a tick (the "
                 "registry is fixed while the kernel ticks)\n",
                 c->name().c_str());
    std::abort();
  }
  components_.erase(components_.begin() +
                    static_cast<std::ptrdiff_t>(c->slot_));
  reindex();
  // Drop its armed timers, so the heap only holds live components.
  if (std::erase_if(wake_heap_,
                    [c](const auto& e) { return e.second == c; }) > 0) {
    std::make_heap(wake_heap_.begin(), wake_heap_.end(), HeapOrder{});
  }
}

void Kernel::wake(Component* c) {
  if (c->awake_) return;
  c->awake_ = true;
  awake_bits_[c->slot_ >> 6] |= slot_bit(c->slot_);
  ++sched_.wakeups;
}

void Kernel::wake_at(Component* c, Cycle cycle) {
  if (cycle <= cycle_) {
    wake(c);
    return;
  }
  wake_heap_.emplace_back(cycle, c);
  std::push_heap(wake_heap_.begin(), wake_heap_.end(), HeapOrder{});
}

void Kernel::release_due_wakes() {
  while (!wake_heap_.empty() && wake_heap_.front().first <= cycle_) {
    std::pop_heap(wake_heap_.begin(), wake_heap_.end(), HeapOrder{});
    Component* c = wake_heap_.back().second;
    wake_heap_.pop_back();
    wake(c);
  }
}

Cycle Kernel::next_wake_cycle() const {
  return wake_heap_.empty() ? kNever : wake_heap_.front().first;
}

void Kernel::reindex() {
  awake_bits_.assign((components_.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < components_.size(); ++i) {
    components_[i]->slot_ = static_cast<u32>(i);
    if (components_[i]->awake_) awake_bits_[i >> 6] |= slot_bit(i);
  }
}

std::size_t Kernel::awake_count() const {
  std::size_t n = 0;
  for (const u64 w : awake_bits_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

// Calls f on every awake component in slot order. The word is re-read
// after each call, masked to the slots above the one just visited, so a
// component woken by an earlier slot is visited in the same walk and one
// woken behind it waits for the next walk, as in a full linear sweep.
template <class F>
void Kernel::for_each_awake(F f) {
  for (std::size_t w = 0; w < awake_bits_.size(); ++w) {
    for (u64 bits = awake_bits_[w]; bits != 0;) {
      const int b = std::countr_zero(bits);
      f(components_[w * 64 + static_cast<std::size_t>(b)]);
      bits = awake_bits_[w] & (~u64{1} << b);
    }
  }
}

void Kernel::sleep_pass() {
  for_each_awake([this](Component* c) {
    if (!c->is_quiescent()) return;
    c->awake_ = false;
    awake_bits_[c->slot_ >> 6] &= ~slot_bit(c->slot_);
    ++sched_.sleeps;
  });
}

void Kernel::tick() {
  release_due_wakes();
  in_tick_ = true;
  try {
    if (gating_enabled_) {
      for_each_awake([](Component* c) { c->tick_compute(); });
      for_each_awake([](Component* c) { c->tick_commit(); });
    } else {
      // Seed-identical tick-everything sweep (differential reference).
      for (Component* c : components_) c->tick_compute();
      for (Component* c : components_) c->tick_commit();
    }
    ++cycle_;
    ++sched_.ticks;
    for (auto& [id, fn] : samplers_) fn(cycle_);
  } catch (...) {
    // A component fault (e.g. a bus ERROR) aborts the cycle exactly as in
    // the seed kernel, but the registry must still leave tick mode —
    // fault-injection tests catch the error and keep simulating.
    in_tick_ = false;
    throw;
  }
  in_tick_ = false;
  if (gating_enabled_) sleep_pass();
}

void Kernel::advance_idle(Cycle to) {
  sched_.fast_forward_cycles += to - cycle_;
  ++sched_.fast_forwards;
  if (samplers_.empty()) {
    cycle_ = to;
    return;
  }
  // Traces must observe every cycle: step so each skipped cycle fires the
  // samplers exactly as a full tick would (the sweep itself is a no-op —
  // nothing is awake). A sampler may construct components or wake one;
  // bail out so the woken component ticks on the very next cycle.
  while (cycle_ < to) {
    ++cycle_;
    for (auto& [id, fn] : samplers_) fn(cycle_);
    if (any_awake()) return;
  }
}

bool Kernel::skip_idle(Cycle limit) {
  if (!gating_enabled_ || any_awake()) return false;
  const Cycle next = std::min(next_wake_cycle(), limit);
  if (next <= cycle_) return false;
  advance_idle(next);
  return true;
}

void Kernel::run(u64 n) {
  const Cycle target = cycle_ + n;
  while (cycle_ < target) {
    if (!skip_idle(target)) tick();
  }
}

void Kernel::run_until(const std::function<bool()>& done, u64 timeout) {
  const Cycle start = cycle_;
  // A fast-forward stops at the timeout deadline, where the loop
  // re-checks done() once more and then throws — the cycle the ungated
  // loop would throw on.
  const Cycle deadline = (timeout > kNever - start) ? kNever : start + timeout;
  // done() first — before the timeout check, before any tick. A predicate
  // already true on entry returns immediately even with timeout == 0.
  while (!done()) {
    if (cycle_ - start >= timeout) {
      throw SimError("Kernel::run_until: timeout after " +
                     std::to_string(timeout) + " cycles");
    }
    if (!skip_idle(deadline)) tick();
  }
}

void Kernel::set_gating(bool on) {
  if (gating_enabled_ == on) return;
  gating_enabled_ = on;
  if (!on) {
    // Re-arm everything so the full sweep resumes with all clocks live.
    for (Component* c : components_) wake(c);
  }
}

std::vector<std::string> Kernel::awake_names() const {
  std::vector<std::string> names;
  for (const Component* c : components_) {
    if (c->awake_) names.push_back(c->name());
  }
  return names;
}

u64 Kernel::add_sampler(std::function<void(Cycle)> fn) {
  const u64 id = next_sampler_id_++;
  samplers_.emplace_back(id, std::move(fn));
  return id;
}

void Kernel::remove_sampler(u64 id) {
  samplers_.erase(
      std::remove_if(samplers_.begin(), samplers_.end(),
                     [id](const auto& p) { return p.first == id; }),
      samplers_.end());
}

std::vector<std::pair<std::string_view, Component*>> Kernel::name_table(
    const char* who, const char* why) const {
  std::vector<std::pair<std::string_view, Component*>> table;
  table.reserve(components_.size());
  for (Component* c : components_) table.emplace_back(c->name(), c);
  std::sort(table.begin(), table.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto dup = std::adjacent_find(
      table.begin(), table.end(),
      [](const auto& a, const auto& b) { return a.first == b.first; });
  if (dup != table.end()) {
    throw snap::SnapshotError(std::string(who) +
                              ": duplicate component name '" +
                              std::string(dup->first) + "'" + why);
  }
  return table;
}

void Kernel::save_to(snap::Snapshot& snap) const {
  if (in_tick_) {
    throw snap::SnapshotError("Kernel::save_to: snapshots are only legal "
                              "between ticks");
  }
  (void)name_table("Kernel::save_to", " (snapshots key on names)");

  KernelImage image;
  image.cycle = cycle_;
  const auto counters = stats_.all();
  image.stats.assign(counters.begin(), counters.end());
  for (const Component* c : components_) {
    image.components.emplace_back(c->name(), c->awake_);
  }
  // Armed one-shot timers; duplicates are kept (spurious wakes are
  // harmless).
  for (const auto& [due, c] : wake_heap_) {
    image.timers.emplace_back(due, c->name());
  }
  snap.write("kernel", 1, [&image](snap::Fields& f) { image.state(f); });

  for (Component* c : components_) {
    snap.write("c:" + c->name(), 1, [c](snap::Fields& f) { c->state(f); });
  }
}

void Kernel::restore_from(const snap::Snapshot& snap) {
  if (in_tick_) {
    throw snap::SnapshotError("Kernel::restore_from: restores are only "
                              "legal between ticks");
  }
  const auto table = name_table("Kernel::restore_from", "");
  const auto find = [&table](std::string_view name) -> Component* {
    const auto it = std::lower_bound(
        table.begin(), table.end(), name,
        [](const auto& e, std::string_view n) { return e.first < n; });
    return it != table.end() && it->first == name ? it->second : nullptr;
  };

  // Read into locals and check them all before anything changes.
  KernelImage image;
  snap.read("kernel", 1, [&image](snap::Fields& f) { image.state(f); });
  if (image.components.size() != table.size()) {
    throw snap::SnapshotError(
        "Kernel::restore_from: snapshot has " +
        std::to_string(image.components.size()) +
        " components, this kernel has " + std::to_string(table.size()) +
        " (stacks must be constructed identically)");
  }
  // With the count equal to the registry size, rejecting a repeated name
  // also rejects a missing one, so every component gets its saved flag.
  // Between ticks every component holds its slot, so the flags are kept
  // by slot: kUnset until the image names the component.
  constexpr u8 kUnset = 2;
  std::vector<u8> awake_flags(components_.size(), kUnset);
  for (const auto& [name, awake] : image.components) {
    const Component* c = find(name);
    if (c == nullptr) {
      throw snap::SnapshotError("Kernel::restore_from: snapshot component '" +
                                name + "' is not registered here");
    }
    u8& flag = awake_flags[c->slot_];
    if (flag != kUnset) {
      throw snap::SnapshotError("Kernel::restore_from: snapshot names "
                                "component '" + name + "' twice");
    }
    flag = awake ? 1 : 0;
  }
  std::vector<std::pair<Cycle, Component*>> timers;
  timers.reserve(image.timers.size());
  for (const auto& [due, name] : image.timers) {
    Component* c = find(name);
    if (c == nullptr) {
      throw snap::SnapshotError("Kernel::restore_from: wake timer names "
                                "unknown component '" + name + "'");
    }
    timers.emplace_back(due, c);
  }

  // Each component's section, found in one pass over the image and
  // checked before the first component restores.
  std::vector<const snap::Section*> sections(components_.size(), nullptr);
  for (const snap::Section& s : snap.sections()) {
    const std::string_view name = s.name;
    if (!name.starts_with("c:")) continue;
    if (const Component* c = find(name.substr(2))) sections[c->slot_] = &s;
  }
  for (const Component* c : components_) {
    const snap::Section* cs = sections[c->slot_];
    if (cs == nullptr) {
      throw snap::SnapshotError("snapshot: missing section 'c:" + c->name() +
                                "'");
    }
    snap::Snapshot::expect_version(*cs, 1);
  }

  // Commit: from here on the kernel mutates. Clock and Stats first so
  // components restoring against kernel().now() see the saved instant.
  cycle_ = image.cycle;
  stats_.clear();
  for (const auto& [key, value] : image.stats) stats_.set(key, value);
  for (Component* c : components_) {
    snap::Snapshot::read(*sections[c->slot_], 1,
                         [c](snap::Fields& f) { c->state(f); });
  }

  // The schedule comes from the kernel section alone: every awake flag
  // and the whole wake heap, over whatever the component restores did.
  for (Component* c : components_) c->awake_ = awake_flags[c->slot_] == 1;
  reindex();
  wake_heap_ = std::move(timers);
  std::make_heap(wake_heap_.begin(), wake_heap_.end(), HeapOrder{});
  sched_ = SchedulerStats{};  // host telemetry restarts at the saved instant
}

}  // namespace ouessant::sim
