#include "ouessant/dpr.hpp"

#include <algorithm>

namespace ouessant::core {

namespace {

/// The fixed static interface: pin count and RAC-side widths must agree;
/// capacities are enveloped by the slot, not matched.
bool shapes_equal(const std::vector<Rac::FifoSpec>& a,
                  const std::vector<Rac::FifoSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].rac_width != b[i].rac_width) return false;
  }
  return true;
}

std::vector<Rac::FifoSpec> envelope_specs(const std::vector<Rac*>& cands,
                                          bool inputs) {
  auto specs = inputs ? cands[0]->input_specs() : cands[0]->output_specs();
  for (std::size_t i = 1; i < cands.size(); ++i) {
    const auto other =
        inputs ? cands[i]->input_specs() : cands[i]->output_specs();
    for (std::size_t j = 0; j < specs.size(); ++j) {
      specs[j].capacity_bits =
          std::max(specs[j].capacity_bits, other[j].capacity_bits);
    }
  }
  return specs;
}

}  // namespace

void ReconfigSlot::check_specs_match(const std::vector<Rac*>& candidates) {
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (!shapes_equal(candidates[0]->input_specs(),
                      candidates[i]->input_specs()) ||
        !shapes_equal(candidates[0]->output_specs(),
                      candidates[i]->output_specs())) {
      throw ConfigError(
          "ReconfigSlot: candidate '" + candidates[i]->name() +
          "' does not match the slot's fixed FIFO interface (all partial "
          "bitstreams must conform to the static region pins: same FIFO "
          "count and RAC-side widths)");
    }
  }
}

ReconfigSlot::ReconfigSlot(sim::Kernel& kernel, std::string name,
                           std::vector<Rac*> candidates, IcapConfig icap)
    : Rac(kernel, std::move(name)),
      candidates_(std::move(candidates)),
      icap_(icap) {
  if (candidates_.empty()) {
    throw ConfigError("ReconfigSlot " + this->name() + ": no candidates");
  }
  if (icap_.bytes_per_cycle == 0) {
    throw ConfigError("ReconfigSlot " + this->name() + ": zero ICAP rate");
  }
  check_specs_match(candidates_);
}

u32 ReconfigSlot::bitstream_bytes_for(const res::ResourceEstimate& e) {
  // Frame-count model: each LUT/FF column contributes configuration
  // frames; BRAM content dominates when present.
  const u64 bytes = static_cast<u64>(e.luts) * 64 +
                    static_cast<u64>(e.ffs) * 8 +
                    static_cast<u64>(e.bram36) * (36 * 1024 / 8) +
                    static_cast<u64>(e.dsps) * 512;
  return static_cast<u32>(round_up(std::max<u64>(bytes, 1024), 256));
}

u32 ReconfigSlot::swap_cycles(std::size_t index) const {
  const auto e = candidates_.at(index)->resource_tree().total();
  return bitstream_bytes_for(e) / icap_.bytes_per_cycle +
         icap_.swap_overhead_cycles;
}

void ReconfigSlot::request_swap(std::size_t index) {
  if (index >= candidates_.size()) {
    throw SimError("ReconfigSlot " + name() + ": no such candidate");
  }
  if (busy()) {
    throw SimError("ReconfigSlot " + name() +
                   ": swap requested while the region is active (quiesce "
                   "the accelerator first)");
  }
  if (index == active_) return;  // already loaded
  target_ = index;
  reconfig_left_ = swap_cycles(index);
  ++swaps_;
  // Re-anchor the credit counter (the slot may have been gated for a
  // long time while idle) and stay awake until the first countdown tick
  // arms the completion timer.
  next_expected_tick_ = kernel().now() + 1;
  countdown_timer_armed_ = false;
  wake();
}

bool ReconfigSlot::begin_external_swap(std::size_t index) {
  if (index >= candidates_.size()) {
    throw SimError("ReconfigSlot " + name() + ": no such candidate");
  }
  if (busy()) {
    throw SimError("ReconfigSlot " + name() +
                   ": swap requested while the region is active (quiesce "
                   "the accelerator first)");
  }
  if (index == active_) return false;  // already loaded
  target_ = index;
  external_swap_ = true;
  external_begin_ = kernel().now();
  ++swaps_;
  return true;
}

void ReconfigSlot::finish_external_swap() {
  if (!external_swap_) {
    throw SimError("ReconfigSlot " + name() +
                   ": finish_external_swap without a pending swap");
  }
  active_ = target_;
  external_swap_ = false;
  reconfig_cycles_total_ += kernel().now() - external_begin_;
}

std::vector<Rac::FifoSpec> ReconfigSlot::input_specs() const {
  return envelope_specs(candidates_, /*inputs=*/true);
}

std::vector<Rac::FifoSpec> ReconfigSlot::output_specs() const {
  return envelope_specs(candidates_, /*inputs=*/false);
}

void ReconfigSlot::bind(std::vector<fifo::WidthFifo*> in,
                        std::vector<fifo::WidthFifo*> out) {
  // The static region pins are shared: every candidate is wired to the
  // same FIFOs. Inactive candidates never touch them (they only act
  // after start()).
  for (Rac* c : candidates_) c->bind(in, out);
}

void ReconfigSlot::start() {
  if (reconfiguring()) {
    throw SimError("ReconfigSlot " + name() +
                   ": start_op during reconfiguration");
  }
  candidates_[active_]->start();
}

bool ReconfigSlot::busy() const {
  return reconfiguring() || candidates_[active_]->busy();
}

u64 ReconfigSlot::completed_ops() const {
  u64 total = 0;
  for (const Rac* c : candidates_) total += c->completed_ops();
  return total;
}

void ReconfigSlot::tick_compute() {
  const u64 skipped = pending_credit();
  next_expected_tick_ = kernel().now() + 1;
  if (reconfig_left_ > 0) {
    // Cycles skipped while gated were all countdown cycles (the timer
    // wakes us no later than completion, so skipped < reconfig_left_).
    reconfig_left_ -= static_cast<u32>(skipped);
    reconfig_cycles_total_ += skipped;
    --reconfig_left_;
    ++reconfig_cycles_total_;
    if (reconfig_left_ == 0) {
      active_ = target_;
      countdown_timer_armed_ = false;
    } else {
      wake_at(kernel().now() + reconfig_left_);
      countdown_timer_armed_ = true;
    }
  }
}

void ReconfigSlot::state(snap::Fields& f) {
  Rac::state(f);
  f.field_as<u32>("active", active_);
  f.field_as<u32>("target", target_);
  if (active_ >= candidates_.size() || target_ >= candidates_.size()) {
    f.fail("candidate index out of range");
  }
  f.field("reconfig_left", reconfig_left_);
  f.field("swaps", swaps_);
  f.field("reconfig_cycles_total", reconfig_cycles_total_);
  f.field("countdown_timer_armed", countdown_timer_armed_);
  f.field("next_expected_tick", next_expected_tick_);
  f.field("external_swap", external_swap_);
  f.field("external_begin", external_begin_);
}

res::ResourceNode ReconfigSlot::resource_tree() const {
  res::ResourceNode n{.name = name() + " (PR region)", .self = {},
                      .children = {}};
  // Region envelope: element-wise max over candidates.
  res::ResourceEstimate region;
  for (const Rac* c : candidates_) {
    const auto e = c->resource_tree().total();
    region.luts = std::max(region.luts, e.luts);
    region.ffs = std::max(region.ffs, e.ffs);
    region.bram36 = std::max(region.bram36, e.bram36);
    region.dsps = std::max(region.dsps, e.dsps);
  }
  // Static decoupling logic on every region pin.
  res::ResourceEstimate decouple;
  for (const auto& spec : input_specs()) {
    decouple += res::est_register(spec.rac_width + 2);
  }
  for (const auto& spec : output_specs()) {
    decouple += res::est_register(spec.rac_width + 2);
  }
  n.children.push_back({"region_envelope", region, {}});
  n.children.push_back({"decouple_logic", decouple, {}});
  return n;
}

}  // namespace ouessant::core
