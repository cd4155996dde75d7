// BitstreamStore: named partial-bitstream images resident in SRAM, and
// BitstreamCache: a bounded LRU staging buffer in front of the ICAP.
//
// The store is the host-side flash/filesystem view of the bitstream
// repository: each image gets an SRAM placement (the ICAP fetches from
// there over the bus) and a size derived from the candidate RAC's
// resource estimate via ReconfigSlot::bitstream_bytes_for. The payload
// words are deterministic fill — configuration frames carry no meaning
// to the simulation beyond their count — but they live in real SRAM so a
// fetch is real bus traffic.
//
// The cache models an on-chip staging BRAM (OpenCPI/Xilinx-style "ICAP
// cache"): whole images, bounded capacity in bytes, LRU eviction. A hit
// lets the IcapPort stream at full ICAP rate with zero bus beats — hot
// reconfigurable modules skip the re-fetch. Hits and misses are
// published as interned kernel Stats ("<name>.hits"/".misses") and the
// state is snapshot-carried (a warm-booted clone keeps its staged
// images — the same warm-boot win the microcode cache has).
#pragma once

#include <string>
#include <vector>

#include "mem/sram.hpp"
#include "sim/kernel.hpp"
#include "snap/state.hpp"

namespace ouessant::dpr {

class BitstreamStore {
 public:
  struct Image {
    std::string name;
    Addr addr = 0;
    u32 bytes = 0;
  };

  /// Images are placed from @p base upward, never beyond @p span bytes
  /// (ConfigError when the repository overflows its SRAM window).
  BitstreamStore(mem::Sram& sram, Addr base, u32 span_bytes);

  /// Register an image of @p bytes (word multiple), fill its SRAM
  /// window with deterministic frame words, and return its id.
  u32 add_image(const std::string& name, u32 bytes);

  [[nodiscard]] const Image& image(u32 id) const { return images_.at(id); }

 private:
  mem::Sram& sram_;
  Addr base_;
  u32 span_;
  u32 next_ = 0;  // offset of the next placement
  std::vector<Image> images_;
};

class BitstreamCache {
 public:
  BitstreamCache(sim::Kernel& kernel, std::string name, u32 capacity_bytes);

  /// True when image @p id (of @p bytes) is staged — the caller may
  /// stream it without a bus fetch. A miss stages it, evicting LRU
  /// images until it fits; images larger than the whole cache bypass
  /// (counted as misses, never staged).
  bool lookup(u32 id, u32 bytes);

  [[nodiscard]] u64 hits() const { return hits_; }
  [[nodiscard]] u64 misses() const { return misses_; }
  [[nodiscard]] u64 evictions() const { return evictions_; }
  [[nodiscard]] u32 resident_bytes() const { return used_; }
  [[nodiscard]] u32 capacity_bytes() const { return capacity_; }
  [[nodiscard]] bool resident(u32 id) const;

  /// Warm-boot: zero the hit/miss/eviction counters, keep the staged
  /// images (they are the warm state worth cloning).
  void reset_counters();

  // Snapshot field list (host-side object; the owner lists it).
  void state(snap::Fields& f);

 private:
  struct Entry {
    u32 id;
    u32 bytes;
  };

  sim::Kernel& kernel_;
  u32 capacity_;
  std::vector<Entry> lru_;  // front = most recently used
  u32 used_ = 0;
  u64 hits_ = 0;
  u64 misses_ = 0;
  u64 evictions_ = 0;
  sim::Stats::Handle h_hits_;
  sim::Stats::Handle h_misses_;
};

}  // namespace ouessant::dpr
