#include "fifo/width_fifo.hpp"

#include <algorithm>

#include "snap/state.hpp"

namespace ouessant::fifo {

WidthFifo::WidthFifo(sim::Kernel& kernel, std::string name,
                     WidthFifoConfig cfg)
    : sim::Component(kernel, std::move(name)), cfg_(cfg) {
  if (cfg_.wr_width == 0 || cfg_.wr_width > 64 || cfg_.rd_width == 0 ||
      cfg_.rd_width > 64) {
    throw ConfigError("WidthFifo " + this->name() +
                      ": port widths must be 1..64 bits");
  }
  if (cfg_.capacity_bits == 0) {
    cfg_.capacity_bits = 512 * std::max(cfg_.wr_width, cfg_.rd_width);
  }
  if (cfg_.capacity_bits < cfg_.wr_width ||
      cfg_.capacity_bits < cfg_.rd_width) {
    throw ConfigError("WidthFifo " + this->name() +
                      ": capacity smaller than one chunk");
  }
}

bool WidthFifo::full() const {
  return level_ + cfg_.wr_width > cfg_.capacity_bits;
}

void WidthFifo::write(u64 value) {
  if (wrote_this_cycle_) {
    throw SimError("WidthFifo " + name() + ": two writes in one cycle");
  }
  if (full()) {
    throw SimError("WidthFifo " + name() + ": write while full");
  }
  wrote_this_cycle_ = true;
  has_pending_write_ = true;
  pending_write_ = value;
  wake();  // the commit phase must run this cycle
}

bool WidthFifo::empty() const { return level_ < cfg_.rd_width; }

u64 WidthFifo::peek() const {
  if (empty()) {
    throw SimError("WidthFifo " + name() + ": peek while empty");
  }
  return storage_.peek(cfg_.rd_width);
}

u64 WidthFifo::read() {
  if (read_this_cycle_) {
    throw SimError("WidthFifo " + name() + ": two reads in one cycle");
  }
  const u64 v = peek();  // checks empty
  read_this_cycle_ = true;
  pending_pop_ = true;
  wake();  // the commit phase must run this cycle
  return v;
}

u32 WidthFifo::bulk_writable(u32 want) const {
  if (wrote_this_cycle_ || read_this_cycle_ || has_pending_write_ ||
      pending_pop_) {
    return 0;
  }
  // Back-to-back writes succeed while the registered level never exceeds
  // capacity - wr_width at write time: level_ + n * wr_width <= capacity.
  const u32 space = cfg_.capacity_bits - level_;
  return std::min<u32>(want, space / cfg_.wr_width);
}

u32 WidthFifo::bulk_readable(u32 want) const {
  if (wrote_this_cycle_ || read_this_cycle_ || has_pending_write_ ||
      pending_pop_) {
    return 0;
  }
  return std::min<u32>(want, level_ / cfg_.rd_width);
}

void WidthFifo::bulk_write(const u64* values, u32 n) {
  if (bulk_writable(n) < n) {
    throw SimError("WidthFifo " + name() + ": bulk_write beyond capacity");
  }
  for (u32 i = 0; i < n; ++i) storage_.push(values[i], cfg_.wr_width);
  writes_ += n;
  level_ = static_cast<u32>(storage_.size_bits());
  // With no concurrent pops the level is monotone across the burst, so
  // the per-cycle high-water mark equals the final level.
  max_level_ = std::max(max_level_, level_);
  if (n > 0) notify_waiters();
}

void WidthFifo::bulk_read(u64* out, u32 n) {
  if (bulk_readable(n) < n) {
    throw SimError("WidthFifo " + name() + ": bulk_read beyond contents");
  }
  for (u32 i = 0; i < n; ++i) out[i] = storage_.pop(cfg_.rd_width);
  reads_ += n;
  level_ = static_cast<u32>(storage_.size_bits());
  if (n > 0) notify_waiters();
}

void WidthFifo::add_waiter(sim::Component& c) {
  if (std::find(waiters_.begin(), waiters_.end(), &c) == waiters_.end()) {
    waiters_.push_back(&c);
  }
}

void WidthFifo::notify_waiters() {
  for (sim::Component* w : waiters_) w->wake();
}

void WidthFifo::flush() {
  storage_.clear();
  level_ = 0;
  wrote_this_cycle_ = false;
  read_this_cycle_ = false;
  has_pending_write_ = false;
  pending_pop_ = false;
  notify_waiters();  // flags may have changed under a gated observer
}

void WidthFifo::tick_commit() {
  const bool changed = pending_pop_ || has_pending_write_;
  if (pending_pop_) {
    // read() already returned this chunk; commit only removes it.
    storage_.drop(cfg_.rd_width);
    ++reads_;
    pending_pop_ = false;
  }
  if (has_pending_write_) {
    storage_.push(pending_write_, cfg_.wr_width);
    ++writes_;
    has_pending_write_ = false;
  }
  level_ = static_cast<u32>(storage_.size_bits());
  max_level_ = std::max(max_level_, level_);
  wrote_this_cycle_ = false;
  read_this_cycle_ = false;
  if (changed) notify_waiters();  // un-gate producers/consumers blocked
                                  // on the registered flags
}

void WidthFifo::state(snap::Fields& f) {
  // Storage travels packed, 32 bits per word, after its bit count.
  u64 stored_bits = storage_.size_bits();
  f.field("stored_bits", stored_bits);
  std::vector<u32> words = storage_.pack_words();
  f.field("storage", words);
  if (f.restoring()) {
    if (words.size() != (stored_bits + 31) / 32 ||
        stored_bits > cfg_.capacity_bits) {
      f.fail("inconsistent storage image");
    }
    storage_.unpack_words(words, static_cast<std::size_t>(stored_bits));
  }
  // Every write of level_ sets it from the storage, so an image whose
  // level differs from its stored bits is refused.
  f.expect<u32>("level", storage_.size_bits());
  if (f.restoring()) level_ = static_cast<u32>(stored_bits);
  f.field("wrote_this_cycle", wrote_this_cycle_);
  f.field("read_this_cycle", read_this_cycle_);
  f.field("pending_write", pending_write_);
  f.field("has_pending_write", has_pending_write_);
  f.field("pending_pop", pending_pop_);
  f.field("writes", writes_);
  f.field("reads", reads_);
  f.field("max_level", max_level_);
}

res::ResourceNode WidthFifo::resource_tree() const {
  const u32 entry = std::max(cfg_.wr_width, cfg_.rd_width);
  const u32 depth = cfg_.capacity_bits / entry;
  res::ResourceNode n;
  n.name = name();
  n.children.push_back(
      {.name = "control",
       .self = res::est_fifo_control(depth, cfg_.wr_width, cfg_.rd_width),
       .children = {}});
  n.children.push_back({.name = "storage",
                        .self = res::est_fifo_storage(depth, entry),
                        .children = {}});
  return n;
}

}  // namespace ouessant::fifo
