#include "svc/slots.hpp"

#include <algorithm>
#include <array>

namespace ouessant::svc {

SwapPolicy policy_from_name(const std::string& name) {
  if (name == "static") return SwapPolicy::kStatic;
  if (name == "greedy") return SwapPolicy::kGreedyQueueDepth;
  if (name == "hysteresis") return SwapPolicy::kHysteresis;
  throw ConfigError("SwapPolicy: unknown policy '" + name + "'");
}

SlotManager::SlotManager(sim::Kernel& kernel, std::string name,
                         Dispatcher& dispatcher, dpr::IcapPort& icap,
                         const dpr::BitstreamStore& store,
                         dpr::BitstreamCache* cache, const SlotFarmConfig& cfg)
    : sim::Component(kernel, std::move(name)),
      dispatcher_(dispatcher),
      icap_(icap),
      store_(store),
      cache_(cache),
      cfg_(cfg),
      margin_pct_(static_cast<u64>(cfg.switch_margin * 100.0 + 0.5)) {
  if (cfg_.switch_margin < 1.0) {
    throw ConfigError("SlotManager: switch_margin must be >= 1.0");
  }
  icap_.set_done_callback([this](u32 token) { on_icap_done(token); });
  dispatcher_.set_slot_director(this);
}

void SlotManager::add_slot(core::ReconfigSlot& region, u32 worker,
                           std::vector<JobKind> kinds,
                           std::vector<u32> images) {
  if (kinds.size() != region.candidate_count() ||
      images.size() != region.candidate_count()) {
    throw ConfigError("SlotManager: kinds/images must cover every candidate");
  }
  if (dispatcher_.worker_kind(worker) != kinds.at(region.active_index())) {
    throw ConfigError(
        "SlotManager: worker kind does not match the resident candidate");
  }
  dispatcher_.mark_worker_retargetable(worker);
  SlotState s;
  s.region = &region;
  s.worker = worker;
  s.kinds = std::move(kinds);
  s.images = std::move(images);
  s.resident_since = kernel().now();
  slots_.push_back(std::move(s));
}

bool SlotManager::candidate(JobKind kind) const {
  for (const auto& s : slots_) {
    for (JobKind k : s.kinds) {
      if (k == kind) return true;
    }
  }
  return false;
}

bool SlotManager::serves(JobKind kind) const {
  if (cfg_.policy != SwapPolicy::kStatic) return candidate(kind);
  for (const auto& s : slots_) {
    if (dispatcher_.worker_kind(s.worker) == kind) return true;
  }
  return false;
}

bool SlotManager::swap_in_flight() const {
  for (const auto& s : slots_) {
    if (s.swapping) return true;
  }
  return false;
}

/// kHysteresis: cycles a slot keeps its kind before it may re-swap.
constexpr u64 kMinResidency = 20'000;
/// kHysteresis: cycles a challenger must dominate *continuously* before
/// its swap fires (the swap costs thousands of cycles; a one-sample
/// Poisson blip drains in hundreds).
constexpr u64 kConfirmWindow = 4'000;

void SlotManager::direct() {
  if (cfg_.policy == SwapPolicy::kStatic) return;
  if (icap_.busy()) return;  // one bitstream at a time on the single port

  // Demand per kind (queued jobs, both classes) and servers per kind
  // (every non-quarantined worker; with the port idle no slot is
  // mid-swap, so resident kinds are current kinds).
  std::array<u64, kNumJobKinds> load{};
  for (std::size_t k = 0; k < kNumJobKinds; ++k) {
    load[k] = dispatcher_.queue().size_of_kind(static_cast<JobKind>(k));
  }
  std::array<u64, kNumJobKinds> servers{};
  for (std::size_t i = 0; i < dispatcher_.worker_count(); ++i) {
    if (dispatcher_.worker_quarantined(i)) continue;
    servers[static_cast<std::size_t>(dispatcher_.worker_kind(i))] += 1;
  }

  const Cycle now = kernel().now();
  for (auto& s : slots_) {
    const auto cur =
        static_cast<std::size_t>(dispatcher_.worker_kind(s.worker));
    // Best challenger by marginal gain: queued-jobs-per-server after the
    // move must beat the resident kind's before it. Integer cross-
    // multiplication keeps the compare exact; ties keep the lowest
    // candidate index (deterministic).
    std::size_t best = s.kinds.size();
    for (std::size_t j = 0; j < s.kinds.size(); ++j) {
      const auto k = static_cast<std::size_t>(s.kinds[j]);
      if (k == cur) continue;
      if (load[k] * servers[cur] <= load[cur] * (servers[k] + 1)) continue;
      if (best == s.kinds.size()) {
        best = j;
        continue;
      }
      const auto b = static_cast<std::size_t>(s.kinds[best]);
      if (load[k] * (servers[b] + 1) > load[b] * (servers[k] + 1)) best = j;
    }
    if (cfg_.policy == SwapPolicy::kHysteresis) {
      if (best != s.kinds.size()) {
        const auto k = static_cast<std::size_t>(s.kinds[best]);
        // Margin guard: the challenger must dominate the resident demand
        // by switch_margin, with a floor of one resident job so a burst
        // against an idle slot does not qualify by dividing by zero
        // demand. The exception is a starvation rescue — a kind no
        // worker serves at all would otherwise wait forever.
        const bool rescue = servers[k] == 0 && load[k] > 0;
        if (!rescue &&
            load[k] * 100 < margin_pct_ * std::max<u64>(load[cur], 1)) {
          best = s.kinds.size();
        }
      }
      // Persistence: queue depth is an instantaneous, noisy signal. The
      // same challenger must hold its dominance for kConfirmWindow
      // cycles before the swap fires — a Poisson blip drains (and resets
      // the clock) long before a real shift would.
      if (best == s.kinds.size()) {
        s.challenger = kNoChallenger;
        continue;
      }
      if (s.challenger != best) {
        s.challenger = static_cast<u32>(best);
        s.challenge_since = now;
      }
      if (now - s.challenge_since < kConfirmWindow) {
        defer_until(s.challenge_since + kConfirmWindow);
        continue;
      }
      if (now - s.resident_since < kMinResidency) {
        // Matured decisions must not sleep past their cycle: arm the
        // doorbell, re-evaluate (fresh demand) when it rings.
        defer_until(s.resident_since + kMinResidency);
        continue;
      }
    }
    if (best == s.kinds.size()) continue;
    s.challenger = kNoChallenger;
    begin_swap(s, best);
    return;  // the port is busy now; next pass reconsiders the rest
  }
}

void SlotManager::begin_swap(SlotState& s, std::size_t target) {
  if (dispatcher_.worker_busy(s.worker)) {
    // Timed quiesce: the same recover sequence the fault path uses; the
    // preempted batch goes back to the queue head.
    ++preemptions_;
    preempted_jobs_ += dispatcher_.preempt_worker(s.worker);
  }
  if (s.region->busy()) {
    throw SimError("SlotManager: region '" + s.region->name() +
                   "' still busy after quiesce");
  }
  dispatcher_.set_worker_reconfiguring(s.worker, true);
  if (!s.region->begin_external_swap(target)) {
    // Candidate already resident (restored images can leave the worker
    // kind behind the region): retarget without streaming.
    dispatcher_.retarget_worker(s.worker, s.kinds[target]);
    dispatcher_.set_worker_reconfiguring(s.worker, false);
    s.resident_since = kernel().now();
    return;
  }
  const u32 image_id = s.images[target];
  const auto& img = store_.image(image_id);
  const bool staged = cache_ != nullptr && cache_->lookup(image_id, img.bytes);
  s.swapping = true;
  s.target = static_cast<u32>(target);
  ++swaps_started_;
  icap_.start_load(img.addr, img.bytes, staged,
                   static_cast<u32>(&s - slots_.data()), img.name);
}

void SlotManager::on_icap_done(u32 token) {
  SlotState& s = slots_.at(token);
  if (!s.swapping) {
    throw SimError("SlotManager: ICAP completion for a slot not swapping");
  }
  s.region->finish_external_swap();
  dispatcher_.retarget_worker(s.worker, s.kinds[s.target]);
  dispatcher_.set_worker_reconfiguring(s.worker, false);
  s.swapping = false;
  s.resident_since = kernel().now();
  ++swaps_completed_;
  // Wake the host loop: the freed slot should get work this cycle, and
  // another slot may be waiting for the port.
  dispatcher_.note_slots_due();
}

void SlotManager::defer_until(Cycle at) {
  const Cycle now = kernel().now();
  if (at <= now) at = now + 1;
  if (deferred_due_ && deferred_at_ <= at) return;
  deferred_due_ = true;
  deferred_at_ = at;
  wake_at(at);
}

void SlotManager::tick_commit() {
  if (deferred_due_ && kernel().now() >= deferred_at_) {
    deferred_due_ = false;
    dispatcher_.note_slots_due();
  }
}

void SlotManager::reset_run_counters() {
  swaps_started_ = 0;
  swaps_completed_ = 0;
  preemptions_ = 0;
  preempted_jobs_ = 0;
  for (auto& s : slots_) s.resident_since = kernel().now();
  if (cache_ != nullptr) cache_->reset_counters();
}

void SlotManager::state(snap::Fields& f) {
  f.field("deferred_due", deferred_due_);
  f.field("deferred_at", deferred_at_);
  f.field("swaps_started", swaps_started_);
  f.field("swaps_completed", swaps_completed_);
  f.field("preemptions", preemptions_);
  f.field("preempted_jobs", preempted_jobs_);
  for (auto& s : slots_) {
    f.field("resident_since", s.resident_since);
    f.field("swapping", s.swapping);
    f.field("swap_target", s.target);
    if (s.target >= s.kinds.size()) f.fail("swap target out of range");
    f.field("challenger", s.challenger);
    f.field("challenge_since", s.challenge_since);
    if (s.challenger != kNoChallenger && s.challenger >= s.kinds.size()) {
      f.fail("challenger out of range");
    }
  }
  if (cache_ != nullptr) cache_->state(f);
}

}  // namespace ouessant::svc
