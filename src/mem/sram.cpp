#include "mem/sram.hpp"

#include <algorithm>

namespace ouessant::mem {

Sram::Sram(std::string name, Addr base, u32 size_bytes, u32 read_wait,
           u32 write_wait)
    : name_(std::move(name)),
      base_(base),
      words_(size_bytes / 4),
      pages_((words_ + kPageWords - 1) / kPageWords),
      read_wait_(read_wait),
      write_wait_(write_wait) {
  if (size_bytes == 0 || size_bytes % 4 != 0) {
    throw ConfigError("Sram " + name_ + ": size must be a non-zero word multiple");
  }
  if (base % 4 != 0) {
    throw ConfigError("Sram " + name_ + ": base must be word aligned");
  }
}

void Sram::out_of_range(Addr addr, const char* what) const {
  throw SimError("Sram " + name_ + ": " + what + " at " + hex(addr) +
                 " out of range");
}

u32 Sram::index_for(Addr addr, const char* what) const {
  if (addr < base_ || (addr - base_) / 4 >= words_) out_of_range(addr, what);
  if (addr % 4 != 0) {
    throw SimError("Sram " + name_ + ": unaligned " + what + " at " +
                   hex(addr));
  }
  return (addr - base_) / 4;
}

void Sram::store(Pages& pages, u32 index, u32 value) {
  auto& page = pages[index / kPageWords];
  if (!page) {
    if (value == 0) return;
    page = std::make_unique<Page>();
  }
  page->words[index % kPageWords] = value;
}

template <class T>
void Sram::store(Pages& pages, u32 index, std::span<const T> src) {
  constexpr std::size_t kPerWord = 4 / sizeof(T);
  while (!src.empty()) {
    const u32 off = index % kPageWords;
    const auto len =
        std::min<std::size_t>(src.size() / kPerWord, kPageWords - off);
    const auto seg = src.first(len * kPerWord);
    auto& page = pages[index / kPageWords];
    if (!page &&
        std::any_of(seg.begin(), seg.end(), [](T x) { return x != 0; })) {
      // A segment that covers the page overwrites all of it.
      page = len == kPageWords ? std::make_unique_for_overwrite<Page>()
                               : std::make_unique<Page>();
    }
    if (page) {
      const std::span<u32> out(page->words + off, len);
      if constexpr (kPerWord == 1) {
        std::copy(seg.begin(), seg.end(), out.begin());
      } else {
        snap::load_le32(seg, out);
      }
    }
    index += static_cast<u32>(len);
    src = src.subspan(seg.size());
  }
}

void Sram::store_run(Pages& pages, u32 index, u32 n, u32 value) {
  while (n > 0) {
    const u32 off = index % kPageWords;
    const u32 len = std::min(n, kPageWords - off);
    auto& page = pages[index / kPageWords];
    if (!page && value != 0) page = std::make_unique<Page>();
    if (page) std::fill_n(page->words + off, len, value);
    index += len;
    n -= len;
  }
}

bus::SlaveResponse Sram::read_word(Addr addr) {
  ++reads_;
  return {.data = word_at(index_for(addr, "read")), .wait_states = read_wait_};
}

u32 Sram::write_word(Addr addr, u32 data) {
  ++writes_;
  store(pages_, index_for(addr, "write"), data);
  return write_wait_;
}

u32 Sram::peek(Addr addr) const { return word_at(index_for(addr, "peek")); }

void Sram::poke(Addr addr, u32 data) {
  store(pages_, index_for(addr, "poke"), data);
}

void Sram::load(Addr addr, const std::vector<u32>& words) {
  if (words.empty()) return;
  const u32 first = index_for(addr, "poke");
  // The words that fit: up to the memory's end, and below 2^32 (a poke
  // past it would wrap to address 0).
  const u64 room =
      std::min<u64>(words_ - first, ((u64{1} << 32) - addr) / 4);
  if (words.size() > room) {
    out_of_range(static_cast<Addr>(addr + room * 4), "poke");
  }
  store<u32>(pages_, first, words);
}

std::vector<u32> Sram::dump(Addr addr, u32 words) const {
  std::vector<u32> out;
  out.reserve(words);
  for (u32 i = 0; i < words; ++i) out.push_back(peek(addr + i * 4));
  return out;
}

void Sram::fill(u32 value) {
  for (auto& page : pages_) {
    if (value == 0) {
      page.reset();
    } else {
      if (!page) page = std::make_unique<Page>();
      std::fill_n(page->words, kPageWords, value);
    }
  }
}

std::size_t Sram::resident_bytes() const {
  return std::count_if(pages_.begin(), pages_.end(),
                       [](const auto& p) { return p != nullptr; }) *
         std::size_t{kPageWords} * 4;
}

void Sram::state(snap::Fields& f) {
  f.expect<std::string>("name", name_);
  f.field("reads", reads_);
  f.field("writes", writes_);
  // Contents stream page by page in both directions.
  if (f.saving()) {
    std::vector<const u32*> pages(pages_.size());
    std::transform(pages_.begin(), pages_.end(), pages.begin(),
                   [](const auto& p) { return p ? p->words : nullptr; });
    f.writer().write_words32("data", words_, pages, kPageWords);
    return;
  }
  // Fill a fresh table so a malformed image leaves the contents as they
  // were. A zero run costs nothing: every page starts absent, and the
  // blocks never overlap.
  Pages pages(pages_.size());
  f.reader().read_words32(
      "data", words_, [&pages](const snap::Words32Block& b) {
        if (!b.literal.empty()) {
          store(pages, b.at, b.literal);
        } else if (b.value != 0) {
          store_run(pages, b.at, b.n, b.value);
        }
      });
  pages_ = std::move(pages);
}

Rom::Rom(std::string name, Addr base, std::vector<u32> contents, u32 read_wait)
    : Sram(std::move(name), base, static_cast<u32>(contents.size() * 4),
           read_wait, 0) {
  store<u32>(pages_, 0, contents);
}

u32 Rom::write_word(Addr addr, u32) {
  throw SimError("Rom " + name_ + ": write to read-only memory at " +
                 hex(addr));
}

}  // namespace ouessant::mem
