#include "cpu/dcache.hpp"

namespace ouessant::cpu {

DCache::DCache(DCacheConfig cfg, bus::InterconnectModel& bus,
               const bus::BusMasterPort& own_port)
    : cfg_(cfg), own_port_(own_port) {
  if (!is_pow2(cfg_.line_words) || !is_pow2(cfg_.lines)) {
    throw ConfigError("DCache: line_words and lines must be powers of two");
  }
  lines_.resize(cfg_.lines);
  for (auto& l : lines_) l.words.assign(cfg_.line_words, 0);
  if (cfg_.snooping) {
    bus.add_write_snooper(
        [this](Addr addr, const bus::BusMasterPort& m) { snoop(addr, m); });
  }
}

bool DCache::lookup(Addr addr, u32& out) {
  Line& l = lines_[index_of(addr)];
  if (l.valid && l.tag == line_base(addr)) {
    ++stats_.hits;
    out = l.words[(addr - l.tag) / 4];
    return true;
  }
  ++stats_.misses;
  return false;
}

void DCache::fill(Addr base, const std::vector<u32>& words) {
  if (words.size() != cfg_.line_words || base != line_base(base)) {
    throw SimError("DCache::fill: bad line");
  }
  Line& l = lines_[index_of(base)];
  l.valid = true;
  l.tag = base;
  l.words = words;
}

void DCache::update(Addr addr, u32 data) {
  ++stats_.writes_through;
  Line& l = lines_[index_of(addr)];
  if (l.valid && l.tag == line_base(addr)) {
    l.words[(addr - l.tag) / 4] = data;
  }
}

void DCache::snoop(Addr addr, const bus::BusMasterPort& master) {
  if (&master == &own_port_) return;  // own write-throughs already update
  Line& l = lines_[index_of(addr)];
  if (l.valid && l.tag == line_base(addr)) {
    l.valid = false;
    ++stats_.snoop_invalidations;
  }
}

void DCache::invalidate_all() {
  for (auto& l : lines_) l.valid = false;
}

void DCache::state(snap::Fields& f) {
  f.expect<u32>("lines", cfg_.lines);
  f.expect<u32>("line_words", cfg_.line_words);
  // Lines travel as three columns: valid flags, tags, and words.
  std::vector<u32> valid;
  std::vector<u64> tags;
  std::vector<u32> words;
  for (const Line& l : lines_) {
    valid.push_back(l.valid ? 1 : 0);
    tags.push_back(l.tag);
    words.insert(words.end(), l.words.begin(), l.words.end());
  }
  f.field("valid", valid);
  f.field("tags", tags);
  f.field("words", words);
  if (f.restoring()) {
    if (valid.size() != lines_.size() || tags.size() != lines_.size() ||
        words.size() != lines_.size() * cfg_.line_words) {
      f.fail("line array size mismatch");
    }
    auto next = words.begin();
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      Line& l = lines_[i];
      l.valid = valid[i] != 0;
      l.tag = tags[i];
      std::copy_n(next, cfg_.line_words, l.words.begin());
      next += cfg_.line_words;
    }
  }
  f.field("hits", stats_.hits);
  f.field("misses", stats_.misses);
  f.field("snoop_invalidations", stats_.snoop_invalidations);
  f.field("writes_through", stats_.writes_through);
}

}  // namespace ouessant::cpu
