#include "cpu/gpp.hpp"

namespace ouessant::cpu {

Gpp::Gpp(sim::Kernel& kernel, bus::BusMasterPort& port, CpuCosts costs)
    : kernel_(kernel), port_(port), costs_(costs) {}

void Gpp::run_transaction() {
  const Cycle t0 = kernel_.now();
  kernel_.run_until([this] { return !port_.busy(); });
  bus_cycles_ += kernel_.now() - t0;
}

void Gpp::enable_dcache(bus::InterconnectModel& bus, DCacheConfig cfg) {
  if (dcache_) throw ConfigError("Gpp: dcache already enabled");
  dcache_ = std::make_unique<DCache>(cfg, bus, port_);
}

u32 Gpp::read32(Addr addr) {
  if (dcache_ && dcache_->cacheable(addr)) {
    u32 word = 0;
    if (dcache_->lookup(addr, word)) {
      kernel_.run(1);  // cache hit: one cycle, no bus traffic
      ++compute_cycles_;
      return word;
    }
    // Miss: fetch the whole line as one burst and refill.
    const Addr base = dcache_->line_base(addr);
    port_.start_read(base, dcache_->config().line_words);
    run_transaction();
    dcache_->fill(base, port_.rdata());
    return port_.rdata()[(addr - base) / 4];
  }
  port_.start_read(addr, 1);
  run_transaction();
  return port_.rdata0();
}

void Gpp::write32(Addr addr, u32 data) {
  if (dcache_ && dcache_->cacheable(addr)) {
    dcache_->update(addr, data);  // write-through, no allocate
  }
  port_.start_write(addr, {data});
  run_transaction();
}

std::vector<u32> Gpp::read_burst(Addr addr, u32 words) {
  port_.start_read(addr, words);
  run_transaction();
  return port_.rdata();
}

void Gpp::write_burst(Addr addr, std::vector<u32> data) {
  if (dcache_ && dcache_->cacheable(addr)) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      dcache_->update(addr + static_cast<Addr>(i * 4), data[i]);
    }
  }
  port_.start_write(addr, std::move(data));
  run_transaction();
}

void Gpp::spend(u64 cycles) {
  compute_cycles_ += cycles;
  kernel_.run(cycles);
}

void Gpp::wait_for_irq(const IrqLine& irq, u64 timeout) {
  const Cycle t0 = kernel_.now();
  kernel_.run_until([&irq] { return irq.raised(); }, timeout);
  idle_cycles_ += kernel_.now() - t0;
}

Cycle Gpp::now() const { return kernel_.now(); }

void Gpp::state(snap::Fields& f) {
  if (f.saving() && port_.busy()) {
    throw snap::SnapshotError(
        "Gpp: cannot snapshot mid-transaction (CPU port busy)");
  }
  f.field("compute_cycles", compute_cycles_);
  f.field("bus_cycles", bus_cycles_);
  f.field("idle_cycles", idle_cycles_);
  f.expect<bool>("has_dcache", dcache_ != nullptr);
  if (dcache_) dcache_->state(f);
}

}  // namespace ouessant::cpu
