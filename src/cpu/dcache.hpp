// Direct-mapped write-through data cache for the GPP, with optional bus
// snooping — the coherence machinery §IV of the paper leans on: once the
// OCP masters the bus and writes result buffers, a CPU cache must either
// snoop those writes or be flushed by software; "current systems
// implement cache snooping".
//
// Clock-gating audit: not a sim::Component — lookups/fills happen on the
// host stack inside Gpp accesses and snoop invalidations are pushed by
// the interconnect during its own (non-gated-while-active) tick, so the
// cache has no per-cycle behaviour to gate.
//
// Model: direct-mapped, configurable line size and line count,
// write-through / no-write-allocate (the Leon3 default configuration).
// Cached hits cost one cycle and produce no bus traffic; misses fetch the
// whole line as one burst. With snooping enabled the cache invalidates
// any line another bus master writes; with it disabled the cache serves
// stale data — the failure mode the coherence test demonstrates.
#pragma once

#include <vector>

#include "bus/interconnect.hpp"
#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::cpu {

struct DCacheConfig {
  u32 line_words = 8;          ///< words per line (power of two)
  u32 lines = 64;              ///< number of lines (power of two)
  Addr cacheable_base = 0x4000'0000;
  u32 cacheable_bytes = 16u << 20;  ///< everything else is uncached (MMIO)
  bool snooping = true;
};

struct DCacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 snoop_invalidations = 0;
  u64 writes_through = 0;
};

/// The cache state machine, owned by Gpp (see Gpp::enable_dcache).
class DCache {
 public:
  DCache(DCacheConfig cfg, bus::InterconnectModel& bus,
         const bus::BusMasterPort& own_port);

  [[nodiscard]] bool cacheable(Addr addr) const {
    return addr >= cfg_.cacheable_base &&
           addr - cfg_.cacheable_base < cfg_.cacheable_bytes;
  }

  /// Look up @p addr. Returns true on hit and writes the word to @p out.
  bool lookup(Addr addr, u32& out);

  /// Install a fetched line (@p line_base aligned, cfg.line_words words).
  void fill(Addr line_base, const std::vector<u32>& words);

  /// Write-through update: refresh the word if its line is resident (no
  /// allocate on miss).
  void update(Addr addr, u32 data);

  [[nodiscard]] Addr line_base(Addr addr) const {
    return addr & ~(line_bytes() - 1);
  }
  [[nodiscard]] u32 line_bytes() const { return cfg_.line_words * 4; }
  [[nodiscard]] const DCacheConfig& config() const { return cfg_; }
  [[nodiscard]] const DCacheStats& stats() const { return stats_; }

  /// Software cache maintenance (the non-snooping fallback §IV alludes
  /// to): drop every line.
  void invalidate_all();

  // Snapshot field list — not a sim::Component (host-stack state
  // machine); the Gpp lists it in the SoC section. Lines are saved as
  // (valid, tag, words) columns so warm-boot clones keep their working
  // set.
  void state(snap::Fields& f);

 private:
  struct Line {
    bool valid = false;
    Addr tag = 0;  // line base address
    std::vector<u32> words;
  };

  [[nodiscard]] u32 index_of(Addr addr) const {
    return (addr / line_bytes()) % cfg_.lines;
  }
  void snoop(Addr addr, const bus::BusMasterPort& master);

  DCacheConfig cfg_;
  const bus::BusMasterPort& own_port_;
  std::vector<Line> lines_;
  DCacheStats stats_;
};

}  // namespace ouessant::cpu
