// Tests for the quiescence-aware scheduler: gating/fast-forward
// semantics, the wake()/wake_at() protocol, the run_until ordering
// contract, the registry that is fixed while the kernel ticks, the awake
// set across 64-bit words, and the interned Stats handles.
//
// The registry tests guard the seed kernel's bug class, a tick loop that
// erased or reallocated the component vector under the active sweep
// (iterator invalidation that only ASan caught): every build refuses a
// construction or destruction during a tick.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/kernel.hpp"
#include "snap/snapshot.hpp"
#include "snap/state.hpp"

namespace ouessant {
namespace {

/// Never-quiescent free runner: counts compute calls and remembers the
/// cycle of the most recent one (now() is pre-increment during compute).
class Runner : public sim::Component {
 public:
  Runner(sim::Kernel& k, std::string name)
      : sim::Component(k, std::move(name)) {}
  void tick_compute() override {
    ++ticks_;
    last_now_ = kernel().now();
  }
  [[nodiscard]] u64 ticks() const { return ticks_; }
  [[nodiscard]] Cycle last_now() const { return last_now_; }

 private:
  u64 ticks_ = 0;
  Cycle last_now_ = 0;
};

/// Always willing to sleep: ticks only while something keeps it awake.
class Sleeper : public Runner {
 public:
  using Runner::Runner;
  [[nodiscard]] bool is_quiescent() const override { return true; }
};

/// Counts into external storage so the count survives the component.
class ExtCounter : public sim::Component {
 public:
  ExtCounter(sim::Kernel& k, std::string name, u64& out)
      : sim::Component(k, std::move(name)), out_(out) {}
  void tick_compute() override { ++out_; }

 private:
  u64& out_;
};

// ---------------------------------------------------------------------
// Gating and fast-forward.

TEST(Gating, IdleComponentIsGatedAfterFirstTick) {
  sim::Kernel k;
  ASSERT_TRUE(k.gating());  // on by default
  Sleeper s(k, "s");
  EXPECT_TRUE(s.awake());  // components are born awake
  k.run(10);
  EXPECT_EQ(k.now(), 10u);
  EXPECT_EQ(s.ticks(), 1u);  // ticked once, then gated
  EXPECT_FALSE(s.awake());
  const auto& sched = k.sched_stats();
  EXPECT_GE(sched.fast_forwards, 1u);
  EXPECT_EQ(sched.ticks + sched.fast_forward_cycles, 10u);
  EXPECT_GE(sched.sleeps, 1u);
}

TEST(Gating, WakeTakesEffectImmediately) {
  sim::Kernel k;
  Sleeper s(k, "s");
  k.run(3);
  ASSERT_FALSE(s.awake());
  s.wake();
  EXPECT_TRUE(s.awake());
  k.tick();
  EXPECT_EQ(s.ticks(), 2u);
  EXPECT_EQ(s.last_now(), 3u);
}

TEST(Gating, WakeAtFiresAtExactCycle) {
  sim::Kernel k;
  Sleeper s(k, "s");
  k.run(2);
  s.wake_at(7);
  EXPECT_FALSE(s.awake());  // timer armed, not yet due
  k.run(8);
  EXPECT_EQ(k.now(), 10u);
  EXPECT_EQ(s.ticks(), 2u);
  EXPECT_EQ(s.last_now(), 7u);  // ticked in the cycle starting at 7
}

TEST(Gating, WakeAtInPastWakesNow) {
  sim::Kernel k;
  Sleeper s(k, "s");
  k.run(2);
  ASSERT_FALSE(s.awake());
  s.wake_at(1);
  EXPECT_TRUE(s.awake());
}

TEST(Gating, FastForwardFiresSamplersEveryCycle) {
  sim::Kernel k;
  Sleeper s(k, "s");
  std::vector<std::pair<Cycle, u64>> log;
  k.add_sampler([&](Cycle c) { log.emplace_back(c, s.ticks()); });
  k.run(5);
  ASSERT_EQ(log.size(), 5u);  // traces observe every skipped cycle
  EXPECT_EQ(log[0], (std::pair<Cycle, u64>{1, 1}));
  EXPECT_EQ(log[4], (std::pair<Cycle, u64>{5, 1}));
}

TEST(Gating, SamplerWakeStopsFastForward) {
  sim::Kernel k;
  Sleeper s(k, "s");
  k.add_sampler([&](Cycle c) {
    if (c == 3) s.wake();
  });
  k.run(6);
  EXPECT_EQ(k.now(), 6u);
  EXPECT_EQ(s.ticks(), 2u);
  EXPECT_EQ(s.last_now(), 3u);  // woke mid-skip, ticked the very next cycle
}

TEST(Gating, NeverQuiescentComponentBlocksFastForward) {
  sim::Kernel k;
  Runner r(k, "r");
  Sleeper s(k, "s");
  k.run(10);
  EXPECT_EQ(r.ticks(), 10u);  // default is_quiescent(): seed behaviour
  EXPECT_EQ(s.ticks(), 1u);
  EXPECT_EQ(k.sched_stats().fast_forwards, 0u);
}

TEST(Gating, SetGatingOffReproducesFullSweep) {
  sim::Kernel k;
  Sleeper s(k, "s");
  k.run(10);
  ASSERT_EQ(s.ticks(), 1u);
  k.set_gating(false);  // re-wakes every component
  EXPECT_TRUE(s.awake());
  k.run(10);
  EXPECT_EQ(s.ticks(), 11u);  // ticked every cycle, like the seed kernel
  k.set_gating(true);
  k.run(10);
  EXPECT_EQ(s.ticks(), 12u);  // one tick to re-evaluate, then gated again
  EXPECT_EQ(k.now(), 30u);
}

TEST(Gating, AwakeDiagnostics) {
  sim::Kernel k;
  Runner r(k, "r");
  Sleeper s(k, "s");
  EXPECT_EQ(k.awake_count(), 2u);
  k.run(2);
  EXPECT_EQ(k.awake_count(), 1u);
  const auto names = k.awake_names();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "r");
}

TEST(Gating, DestroyedComponentTimerDoesNotDangle) {
  sim::Kernel k;
  {
    Sleeper s(k, "s");
    k.run(1);
    s.wake_at(100);  // the removal erases the armed timer
  }
  k.run(10);  // must neither crash nor stall on the dead heap entry
  EXPECT_EQ(k.now(), 11u);
}

// ---------------------------------------------------------------------
// run_until ordering contract (see Kernel::run_until docs).

TEST(RunUntil, DoneOnEntryReturnsWithoutTicking) {
  sim::Kernel k;
  Runner r(k, "r");
  k.run_until([] { return true; }, /*timeout=*/0);
  EXPECT_EQ(k.now(), 0u);
  EXPECT_EQ(r.ticks(), 0u);  // done() is evaluated before any tick
}

TEST(RunUntil, ZeroTimeoutThrowsWithoutTicking) {
  sim::Kernel k;
  Runner r(k, "r");
  EXPECT_THROW(k.run_until([] { return false; }, 0), SimError);
  EXPECT_EQ(k.now(), 0u);
  EXPECT_EQ(r.ticks(), 0u);
}

TEST(RunUntil, TimeoutThrowsAtEntryPlusTimeout) {
  sim::Kernel k;
  Runner r(k, "r");
  EXPECT_THROW(k.run_until([] { return false; }, 100), SimError);
  EXPECT_EQ(k.now(), 100u);
  EXPECT_EQ(r.ticks(), 100u);  // the final allowed tick is the timeout-th
  EXPECT_THROW(k.run_until([] { return false; }, 50), SimError);
  EXPECT_EQ(k.now(), 150u);  // deadline is relative to the entry cycle
}

TEST(RunUntil, SucceedsExactlyAtDeadline) {
  // done() is re-evaluated after the timeout-th tick, before throwing.
  sim::Kernel k;
  Runner r(k, "r");
  k.run_until([&] { return r.ticks() >= 100; }, 100);
  EXPECT_EQ(k.now(), 100u);
}

TEST(RunUntil, GatedTimeoutCycleMatchesUngated) {
  // The fast-forwarded run_until must throw on the same cycle the seed's
  // tick-everything loop would.
  auto timeout_cycle = [](bool gating) {
    sim::Kernel k;
    k.set_gating(gating);
    Sleeper s(k, "s");
    try {
      k.run_until([] { return false; }, 1234);
    } catch (const SimError&) {
      return k.now();
    }
    ADD_FAILURE() << "run_until did not time out";
    return Cycle{0};
  };
  EXPECT_EQ(timeout_cycle(true), 1234u);
  EXPECT_EQ(timeout_cycle(false), 1234u);
}

// ---------------------------------------------------------------------
// The registry is fixed while the kernel ticks.

/// Deletes *victim during its own compute phase at cycle @p kill_at.
class Killer : public sim::Component {
 public:
  Killer(sim::Kernel& k, std::string name, std::unique_ptr<ExtCounter>& victim,
         Cycle kill_at)
      : sim::Component(k, std::move(name)),
        victim_(victim),
        kill_at_(kill_at) {}
  void tick_compute() override {
    if (kernel().now() == kill_at_) victim_.reset();
  }

 private:
  std::unique_ptr<ExtCounter>& victim_;
  Cycle kill_at_;
};

/// Tries once to construct a component into @p slot during compute at
/// cycle @p at.
class Spawner : public sim::Component {
 public:
  Spawner(sim::Kernel& k, std::string name,
          std::unique_ptr<ExtCounter>& slot, u64& out, Cycle at)
      : sim::Component(k, std::move(name)), slot_(slot), out_(out), at_(at) {}
  void tick_compute() override {
    if (kernel().now() == at_ && !tried_) {
      tried_ = true;
      slot_ = std::make_unique<ExtCounter>(kernel(), "spawned", out_);
    }
  }

 private:
  std::unique_ptr<ExtCounter>& slot_;
  u64& out_;
  Cycle at_;
  bool tried_ = false;
};

/// The (due, component) wake timers listed by the kernel section of
/// @p image, read field by field in the section's wire order.
std::vector<std::pair<Cycle, std::string>> saved_timers(
    const snap::Snapshot& image) {
  snap::StateReader in(image.section("kernel").bytes, "kernel");
  (void)in.read_u64("cycle");
  const u32 stats = in.read_u32("stat_count");
  for (u32 i = 0; i < stats; ++i) {
    (void)in.read_string("stat");
    (void)in.read_u64("value");
  }
  const u32 components = in.read_u32("component_count");
  for (u32 i = 0; i < components; ++i) {
    (void)in.read_string("component");
    (void)in.read_bool("awake");
  }
  std::vector<std::pair<Cycle, std::string>> timers(
      in.read_u32("timer_count"));
  for (auto& [due, name] : timers) {
    due = in.read_u64("due");
    name = in.read_string("component");
  }
  in.expect_end();
  return timers;
}

TEST(Registry, ConstructDuringTickIsRefused) {
  sim::Kernel k;
  u64 spawned_ticks = 0;
  std::unique_ptr<ExtCounter> spawned;
  Spawner sp(k, "spawner", spawned, spawned_ticks, /*at=*/1);
  Runner r(k, "r");
  try {
    k.run(5);
    ADD_FAILURE() << "a construction during a tick was accepted";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("component 'spawned' constructed "
                                         "during a tick"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(k.now(), 1u);  // the refusing cycle did not complete
  EXPECT_EQ(spawned, nullptr);
  EXPECT_EQ(k.component_count(), 2u);
  EXPECT_EQ(r.ticks(), 1u);  // slotted after the spawner: not reached
  // Between ticks the same construction registers and ticks at once.
  u64 late_ticks = 0;
  ExtCounter late(k, "late", late_ticks);
  EXPECT_EQ(k.component_count(), 3u);
  k.run(2);
  EXPECT_EQ(k.now(), 3u);
  EXPECT_EQ(late_ticks, 2u);
  EXPECT_EQ(spawned_ticks, 0u);
  EXPECT_EQ(r.ticks(), 3u);
}

TEST(RegistryDeathTest, DestroyDuringTickAborts) {
  // A destructor cannot throw: destroying a component from another
  // component's compute phase names it on stderr and aborts.
  EXPECT_DEATH(
      {
        sim::Kernel k;
        u64 victim_ticks = 0;
        std::unique_ptr<ExtCounter> victim;
        Killer killer(k, "killer", victim, /*kill_at=*/2);
        victim = std::make_unique<ExtCounter>(k, "victim", victim_ticks);
        k.run(5);
      },
      "component 'victim' destroyed during a tick");
}

TEST(Registry, RemovalBetweenTicksDropsItsTimers) {
  sim::Kernel k;
  Sleeper survivor(k, "survivor");
  auto doomed = std::make_unique<Sleeper>(k, "doomed");
  k.run(1);  // both tick once, then sleep
  doomed->wake_at(4);  // due before the survivor's timer, and after it
  survivor.wake_at(6);
  doomed->wake_at(9);
  doomed.reset();
  EXPECT_EQ(k.component_count(), 1u);

  snap::Snapshot image;
  k.save_to(image);
  EXPECT_EQ(saved_timers(image),
            (std::vector<std::pair<Cycle, std::string>>{{6, "survivor"}}));

  k.run(9);
  EXPECT_EQ(k.now(), 10u);
  EXPECT_EQ(survivor.ticks(), 2u);
  EXPECT_EQ(survivor.last_now(), 6u);  // fired on its own cycle
  EXPECT_EQ(k.sched_stats().wakeups, 1u);
  EXPECT_EQ(k.sched_stats().fast_forwards, 2u);  // 1 -> 6, then 7 -> 10
}

TEST(Registry, ExceptionInTickLeavesKernelUsable) {
  class ThrowOnce : public sim::Component {
   public:
    explicit ThrowOnce(sim::Kernel& k) : sim::Component(k, "boom") {}
    void tick_compute() override {
      if (kernel().now() == 2 && !thrown_) {
        thrown_ = true;
        throw SimError("boom");
      }
    }

   private:
    bool thrown_ = false;
  };
  sim::Kernel k;
  ThrowOnce t(k);
  EXPECT_THROW(k.run(5), SimError);
  EXPECT_EQ(k.now(), 2u);  // the faulting cycle did not complete
  // The registry must have left tick mode: constructing a component now
  // must register it immediately, and simulation continues.
  u64 ticks = 0;
  ExtCounter c(k, "late", ticks);
  k.run(3);
  EXPECT_EQ(k.now(), 5u);
  EXPECT_EQ(ticks, 3u);
}

// ---------------------------------------------------------------------
// The awake set across 64-bit words. The kernel keeps one bit per
// registration slot; these tests place the actors in different words
// (slots 0-63, 64-127, 128+) and pin the exact call order and scheduler
// counters a full linear sweep produces.

struct Call {
  Cycle now;
  char phase;  // 'c' compute, 'm' commit
  int id;
  bool operator==(const Call&) const = default;
};

/// Sleeps unless it holds work: each compute spends one unit of hold_.
/// A one-shot action runs at its next compute, before the unit is spent.
class Poker : public sim::Component {
 public:
  Poker(sim::Kernel& k, int id, std::vector<Call>& log)
      : sim::Component(k, "p" + std::to_string(id)), id_(id), log_(log) {}
  void tick_compute() override {
    log_.push_back({kernel().now(), 'c', id_});
    if (action_) std::exchange(action_, nullptr)();
    if (hold_ > 0) --hold_;
  }
  void tick_commit() override { log_.push_back({kernel().now(), 'm', id_}); }
  [[nodiscard]] bool is_quiescent() const override { return hold_ == 0; }
  void state(snap::Fields& f) override { f.field("hold", hold_); }

  /// Give this component @p hold computes of work and wake it.
  void poke(u32 hold) {
    hold_ = hold;
    wake();
  }
  void then(std::function<void()> action) { action_ = std::move(action); }

 private:
  int id_;
  std::vector<Call>& log_;
  u32 hold_ = 0;
  std::function<void()> action_;
};

/// 130 sleeping components: three words of the awake set, the last one
/// holding slots 128 and 129.
class WideKernel : public ::testing::Test {
 protected:
  static constexpr int kCount = 130;

  void SetUp() override {
    build(k, p);
    k.run(1);  // every component ticks once, then all of them sleep
    log.clear();
  }
  void build(sim::Kernel& kernel, std::vector<std::unique_ptr<Poker>>& out) {
    for (int i = 0; i < kCount; ++i) {
      out.push_back(std::make_unique<Poker>(kernel, i, log));
    }
  }
  /// The scheduler counters as {ticks, wakeups, sleeps}.
  [[nodiscard]] std::vector<u64> sched() const {
    const auto& s = k.sched_stats();
    return {s.ticks, s.wakeups, s.sleeps};
  }

  sim::Kernel k;
  std::vector<Call> log;
  std::vector<std::unique_ptr<Poker>> p;
};

TEST_F(WideKernel, EarlySlotWakesLaterWordSameCycle) {
  ASSERT_EQ(k.component_count(), 130u);
  ASSERT_EQ(k.awake_count(), 0u);
  EXPECT_EQ(sched(), (std::vector<u64>{1, 0, 130}));
  p[10]->poke(1);
  p[10]->then([&] {
    p[70]->poke(1);
    p[20]->poke(1);
  });
  k.run(3);
  // 20 (same word) and 70 (next word) are ahead of the walk: both
  // compute this cycle.
  EXPECT_EQ(log, (std::vector<Call>{{1, 'c', 10},
                                    {1, 'c', 20},
                                    {1, 'c', 70},
                                    {1, 'm', 10},
                                    {1, 'm', 20},
                                    {1, 'm', 70}}));
  EXPECT_EQ(k.now(), 4u);
  EXPECT_EQ(sched(), (std::vector<u64>{2, 3, 133}));
}

TEST_F(WideKernel, LateSlotWakesEarlierWordNextCycle) {
  p[70]->poke(1);
  p[70]->then([&] { p[10]->poke(1); });
  k.run(3);
  // 10 is behind the walk: this cycle's commit, next cycle's compute.
  EXPECT_EQ(log, (std::vector<Call>{{1, 'c', 70},
                                    {1, 'm', 10},
                                    {1, 'm', 70},
                                    {2, 'c', 10},
                                    {2, 'm', 10}}));
  EXPECT_EQ(sched(), (std::vector<u64>{3, 2, 132}));
}

TEST_F(WideKernel, LastSlotOfAWordWakesTheFirstOfTheNext) {
  p[63]->poke(1);
  p[63]->then([&] { p[64]->poke(1); });
  p[128]->poke(2);
  k.run(3);
  EXPECT_EQ(log, (std::vector<Call>{{1, 'c', 63},
                                    {1, 'c', 64},
                                    {1, 'c', 128},
                                    {1, 'm', 63},
                                    {1, 'm', 64},
                                    {1, 'm', 128},
                                    {2, 'c', 128},
                                    {2, 'm', 128}}));
  EXPECT_EQ(sched(), (std::vector<u64>{3, 3, 133}));
}

TEST_F(WideKernel, KillAndSpawnAcrossWords) {
  // Between ticks: killing 70 and 129, both awake, renumbers every later
  // slot and drops the third word; a spawned component appends as slot
  // 128 of 129, adding the word back.
  p[70]->poke(1);
  p[129]->poke(1);
  p[70].reset();
  p[129].reset();
  EXPECT_EQ(k.component_count(), 128u);
  EXPECT_EQ(k.awake_count(), 0u);
  auto spawned = std::make_unique<Poker>(k, 1000, log);
  spawned->poke(2);  // born awake: the hold keeps it so past the boundary
  EXPECT_EQ(k.component_count(), 129u);
  // 10 wakes 100 and 120 (now slots 99 and 119) ahead of the walk; the
  // spawned component ticks in the third word the same cycle.
  p[10]->poke(1);
  p[10]->then([&] {
    p[100]->poke(1);
    p[120]->poke(1);
  });
  EXPECT_EQ(k.awake_count(), 2u);
  k.tick();
  EXPECT_EQ(log, (std::vector<Call>{{1, 'c', 10},
                                    {1, 'c', 100},
                                    {1, 'c', 120},
                                    {1, 'c', 1000},
                                    {1, 'm', 10},
                                    {1, 'm', 100},
                                    {1, 'm', 120},
                                    {1, 'm', 1000}}));
  ASSERT_EQ(k.awake_names(), (std::vector<std::string>{"p1000"}));
  log.clear();
  k.run(2);  // the spawned component ticks once more, then sleeps
  EXPECT_EQ(log, (std::vector<Call>{{2, 'c', 1000}, {2, 'm', 1000}}));
  EXPECT_EQ(k.awake_count(), 0u);
  // Between ticks again: killing the spawned one and 128 (now slot 127)
  // leaves two words; two adds append slots 127 and 128, the second one
  // opening the third word again.
  spawned.reset();
  p[128].reset();
  EXPECT_EQ(k.component_count(), 127u);
  Poker late(k, 2000, log);
  Poker later(k, 2001, log);
  EXPECT_EQ(k.awake_count(), 2u);
  p[127]->poke(1);
  log.clear();
  k.run(1);
  EXPECT_EQ(log, (std::vector<Call>{{4, 'c', 127},
                                    {4, 'c', 2000},
                                    {4, 'c', 2001},
                                    {4, 'm', 127},
                                    {4, 'm', 2000},
                                    {4, 'm', 2001}}));
  EXPECT_EQ(sched(), (std::vector<u64>{4, 6, 137}));
}

TEST_F(WideKernel, RestoreBringsBackTheAwakeSet) {
  p[5]->poke(2);
  p[64]->poke(3);
  p[129]->poke(1);
  snap::Snapshot image;
  k.save_to(image);

  sim::Kernel other;
  std::vector<std::unique_ptr<Poker>> q;
  build(other, q);  // born awake: all 130 set until the restore
  other.restore_from(image);
  EXPECT_EQ(other.awake_names(),
            (std::vector<std::string>{"p5", "p64", "p129"}));
  log.clear();
  other.run(4);
  const std::vector<Call> restored = std::exchange(log, {});
  k.run(4);
  EXPECT_EQ(restored, log);
  EXPECT_EQ(restored.size(), 12u);  // 5 twice, 64 three times, 129 once
  EXPECT_EQ(other.sched_stats().ticks, 3u);
  EXPECT_EQ(other.sched_stats().sleeps, 3u);
  EXPECT_EQ(other.now(), k.now());
}

TEST_F(WideKernel, GatingOffThenOn) {
  k.set_gating(false);
  EXPECT_EQ(k.awake_count(), 130u);
  k.run(2);
  EXPECT_EQ(log.size(), 2u * 2u * 130u);  // everyone, every cycle
  EXPECT_EQ(sched(), (std::vector<u64>{3, 130, 130}));
  k.set_gating(true);
  p[100]->poke(2);
  log.clear();
  k.run(3);
  // One tick re-evaluates all 130; then only 100 holds work.
  EXPECT_EQ(log.size(), 2u * 130u + 2u);
  EXPECT_EQ(log.back(), (Call{4, 'm', 100}));
  EXPECT_EQ(k.awake_count(), 0u);
  EXPECT_EQ(sched(), (std::vector<u64>{5, 130, 260}));
}

// ---------------------------------------------------------------------
// Interned Stats handles.

TEST(StatsHandles, HandleAndStringShareSlot) {
  sim::Stats s;
  const sim::Stats::Handle h = s.intern("x");
  ASSERT_TRUE(h.valid());
  s.add(h, 5);
  EXPECT_EQ(s.get("x"), 5u);  // string reads observe handle writes
  s.add("x", 2);
  EXPECT_EQ(s.get(h), 7u);  // and vice versa
  EXPECT_TRUE(s.has("x"));
}

TEST(StatsHandles, InternIsIdempotent) {
  sim::Stats s;
  const auto a = s.intern("k");
  const auto b = s.intern("k");
  s.add(a, 1);
  s.add(b, 1);
  EXPECT_EQ(s.get("k"), 2u);
}

TEST(StatsHandles, HandleSurvivesClear) {
  sim::Stats s;
  const auto h = s.intern("x");
  s.add(h, 9);
  s.clear();
  EXPECT_EQ(s.get(h), 0u);
  EXPECT_FALSE(s.has("x"));
  s.add(h, 3);  // outstanding handles stay valid across clear()
  EXPECT_EQ(s.get("x"), 3u);
  EXPECT_TRUE(s.has("x"));
}

TEST(StatsHandles, DefaultHandleIsInvalid) {
  EXPECT_FALSE(sim::Stats::Handle{}.valid());
}

}  // namespace
}  // namespace ouessant
