#include "dpr/store.hpp"

#include <algorithm>

namespace ouessant::dpr {

BitstreamStore::BitstreamStore(mem::Sram& sram, Addr base, u32 span_bytes)
    : sram_(sram), base_(base), span_(span_bytes) {
  if (base % 4 != 0) {
    throw ConfigError("BitstreamStore: base must be word aligned");
  }
}

u32 BitstreamStore::add_image(const std::string& name, u32 bytes) {
  if (bytes == 0 || bytes % 4 != 0) {
    throw ConfigError("BitstreamStore: image '" + name +
                      "' length is not a word multiple");
  }
  if (next_ + bytes > span_) {
    throw ConfigError("BitstreamStore: image '" + name +
                      "' overflows the repository window (" +
                      std::to_string(span_) + " bytes)");
  }
  const u32 id = static_cast<u32>(images_.size());
  const Addr addr = base_ + next_;
  // Deterministic frame fill: id and word offset folded through a
  // Fibonacci-hash mix, so images differ and dumps are recognizable.
  std::vector<u32> words(bytes / 4);
  for (u32 i = 0; i < words.size(); ++i) {
    words[i] = (id * 0x9E3779B9u) ^ (i * 0x85EBCA6Bu) ^ 0xB175C0DEu;
  }
  sram_.load(addr, words);
  images_.push_back(Image{name, addr, bytes});
  next_ += bytes;
  return id;
}

BitstreamCache::BitstreamCache(sim::Kernel& kernel, std::string name,
                               u32 capacity_bytes)
    : kernel_(kernel),
      capacity_(capacity_bytes),
      h_hits_(kernel.stats().intern(name + ".hits")),
      h_misses_(kernel.stats().intern(name + ".misses")) {}

bool BitstreamCache::resident(u32 id) const {
  return std::any_of(lru_.begin(), lru_.end(),
                     [id](const Entry& e) { return e.id == id; });
}

bool BitstreamCache::lookup(u32 id, u32 bytes) {
  for (std::size_t i = 0; i < lru_.size(); ++i) {
    if (lru_[i].id != id) continue;
    const Entry e = lru_[i];
    lru_.erase(lru_.begin() + static_cast<std::ptrdiff_t>(i));
    lru_.insert(lru_.begin(), e);
    ++hits_;
    kernel_.stats().add(h_hits_);
    return true;
  }
  ++misses_;
  kernel_.stats().add(h_misses_);
  if (bytes > capacity_) return false;  // can never fit: bypass
  while (used_ + bytes > capacity_) {
    used_ -= lru_.back().bytes;
    lru_.pop_back();
    ++evictions_;
  }
  lru_.insert(lru_.begin(), Entry{id, bytes});
  used_ += bytes;
  return false;
}

void BitstreamCache::reset_counters() {
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

void BitstreamCache::state(snap::Fields& f) {
  // The LRU list travels as two columns, most recent first.
  std::vector<u32> ids;
  std::vector<u32> sizes;
  for (const Entry& e : lru_) {
    ids.push_back(e.id);
    sizes.push_back(e.bytes);
  }
  f.field("cache_ids", ids);
  f.field("cache_sizes", sizes);
  if (f.restoring()) {
    if (ids.size() != sizes.size()) f.fail("id/size lists disagree");
    lru_.clear();
    used_ = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      lru_.push_back(Entry{ids[i], sizes[i]});
      used_ += sizes[i];
    }
    if (used_ > capacity_) f.fail("image exceeds capacity");
  }
  f.field("cache_hits", hits_);
  f.field("cache_misses", misses_);
  f.field("cache_evictions", evictions_);
}

}  // namespace ouessant::dpr
