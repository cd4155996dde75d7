// Memory models. The paper's platform is a Nexys4 board with 16 MB SRAM
// behind the AHB bus; Sram models it as a word-addressed array with
// configurable wait states. Rom is the same with writes rejected.
//
// Storage is a table of fixed 4 KiB pages. A page is allocated on its
// first non-zero write and an absent page reads as zero, so a stack
// that touches a few banks of its 16 MB holds only those pages, and
// building, saving and restoring one costs O(present pages), not
// O(size). The contents every access sees are those of a dense array.
//
// Clock-gating audit: not a sim::Component — purely reactive bus slaves
// with no per-cycle behaviour of their own (wait states are charged by
// the interconnect), so there is nothing to gate.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bus/types.hpp"
#include "snap/state.hpp"

namespace ouessant::mem {

class Sram : public bus::BusSlave, public snap::Stateful<Sram> {
 public:
  static constexpr u32 kPageWords = 1024;

  /// @p base is the bus base address; accesses arrive with absolute
  /// addresses. @p read_wait / @p write_wait are per-beat wait states.
  Sram(std::string name, Addr base, u32 size_bytes, u32 read_wait = 0,
       u32 write_wait = 0);

  // bus::BusSlave
  bus::SlaveResponse read_word(Addr addr) override;
  u32 write_word(Addr addr, u32 data) override;
  /// Pure storage — accesses touch only pages_ and the read/write
  /// counters, so the interconnect may run a whole burst's accesses
  /// eagerly (batched burst windows) without anything observing the
  /// difference. Rom inherits this: its write_word throws, and the
  /// batched path re-raises on the exact per-beat cycle.
  [[nodiscard]] bool batchable_slave() const override { return true; }
  [[nodiscard]] std::string slave_name() const override { return name_; }

  // Host-side (testbench) backdoor access — no simulated time, and no
  // access counter moves.
  [[nodiscard]] u32 peek(Addr addr) const;
  void poke(Addr addr, u32 data);
  /// Stores @p words from @p addr on, a page segment at a time. The
  /// whole range is checked first: a range that leaves the memory throws
  /// the SimError a poke of its first bad address throws, and writes
  /// nothing.
  void load(Addr addr, const std::vector<u32>& words);
  [[nodiscard]] std::vector<u32> dump(Addr addr, u32 words) const;
  void fill(u32 value);

  [[nodiscard]] Addr base() const { return base_; }
  [[nodiscard]] u32 size_bytes() const { return words_ * 4; }
  /// Host bytes held by allocated pages.
  [[nodiscard]] std::size_t resident_bytes() const;
  [[nodiscard]] u64 reads() const { return reads_; }
  [[nodiscard]] u64 writes() const { return writes_; }

  /// Snapshot field list. Not a sim::Component, so Soc lists it in the
  /// "soc" section. Contents are run-length encoded — a mostly untouched
  /// 16 MB SRAM serializes in a few bytes — and a restore allocates only
  /// the pages that hold a non-zero word.
  void state(snap::Fields& f);

 protected:
  /// Cache-line aligned: with the allocator's 16-byte alignment the
  /// ocp_stream and serve_mix workloads of perfbench ran ~7% slower than
  /// on a dense array; aligned pages run as fast.
  struct alignas(64) Page {
    u32 words[kPageWords];
  };
  using Pages = std::vector<std::unique_ptr<Page>>;

  [[nodiscard]] u32 index_for(Addr addr, const char* what) const;
  [[noreturn]] void out_of_range(Addr addr, const char* what) const;
  [[nodiscard]] u32 word_at(u32 index) const {
    const auto& page = pages_[index / kPageWords];
    return page ? page->words[index % kPageWords] : 0;
  }
  /// Stores @p value at word @p index of @p pages, allocating the page
  /// only for a non-zero value.
  static void store(Pages& pages, u32 index, u32 value);
  /// Stores the words of @p src from word @p index of @p pages on, one
  /// page segment at a time; an absent page is allocated only for a
  /// segment that holds a non-zero word. @p src holds the words (T is
  /// u32), or a snapshot literal block's little-endian bytes (T is u8),
  /// which each segment decodes straight into its page.
  template <class T>
  static void store(Pages& pages, u32 index, std::span<const T> src);
  /// Sets @p n words from word @p index of @p pages on to @p value, one
  /// page segment at a time; a zero value allocates no page.
  static void store_run(Pages& pages, u32 index, u32 n, u32 value);

  std::string name_;
  Addr base_;
  u32 words_;
  Pages pages_;
  u32 read_wait_;
  u32 write_wait_;
  u64 reads_ = 0;
  u64 writes_ = 0;
};

class Rom : public Sram {
 public:
  Rom(std::string name, Addr base, std::vector<u32> contents,
      u32 read_wait = 0);

  u32 write_word(Addr addr, u32 data) override;
};

}  // namespace ouessant::mem
