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
                           std::vector<Rac*> candidates)
    : Rac(kernel, std::move(name)), candidates_(std::move(candidates)) {
  if (candidates_.empty()) {
    throw ConfigError("ReconfigSlot " + this->name() + ": no candidates");
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

bool ReconfigSlot::begin_swap(std::size_t index) {
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
  swapping_ = true;
  ++swaps_;
  return true;
}

void ReconfigSlot::finish_swap() {
  if (!swapping_) {
    throw SimError("ReconfigSlot " + name() +
                   ": finish_swap without a pending swap");
  }
  active_ = target_;
  swapping_ = false;
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
  if (swapping_) {
    throw SimError("ReconfigSlot " + name() +
                   ": start_op during reconfiguration");
  }
  candidates_[active_]->start();
}

bool ReconfigSlot::busy() const {
  return swapping_ || candidates_[active_]->busy();
}

u64 ReconfigSlot::completed_ops() const {
  u64 total = 0;
  for (const Rac* c : candidates_) total += c->completed_ops();
  return total;
}

void ReconfigSlot::state(snap::Fields& f) {
  Rac::state(f);
  f.field_as<u32>("active", active_);
  f.field_as<u32>("target", target_);
  if (active_ >= candidates_.size() || target_ >= candidates_.size()) {
    f.fail("candidate index out of range");
  }
  // The five zero fields belonged to the region's own swap countdown,
  // which the configuration port replaced. They stay on the wire as
  // zeros because perfbench/golden.txt pins every workload's snap.bytes;
  // a version bump of this section drops them when that file is next
  // re-pinned.
  f.expect<u32>("reconfig_left", 0);
  f.field("swaps", swaps_);
  f.expect<u64>("reconfig_cycles_total", 0);
  f.expect<bool>("countdown_timer_armed", false);
  f.expect<u64>("next_expected_tick", 0);
  f.field("external_swap", swapping_);
  f.expect<u64>("external_begin", 0);
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
