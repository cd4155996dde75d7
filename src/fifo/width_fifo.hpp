// Width-adapting synchronous FIFO — the interfacing primitive the Ouessant
// project ships for RAC integration (paper Fig. 2).
//
// One side writes chunks of `wr_width` bits, the other reads chunks of
// `rd_width` bits; the FIFO serializes (wide -> narrow) or deserializes
// (narrow -> wide) as a side effect, acting as a "simple data formatting
// entity". Flags follow synchronous-FIFO semantics: `full` and `empty` are
// the *registered* flags of the current cycle — a pop this cycle does not
// un-full the FIFO until the next clock edge.
//
// Hardware usage contract (checked, violations throw SimError):
//   * at most one write and one read per cycle,
//   * no write when full, no read when empty.
#pragma once

#include <string>
#include <vector>

#include "fifo/bit_queue.hpp"
#include "res/estimate.hpp"
#include "sim/kernel.hpp"

namespace ouessant::fifo {

struct WidthFifoConfig {
  unsigned wr_width = 32;   ///< write-port width in bits (1..64)
  unsigned rd_width = 32;   ///< read-port width in bits (1..64)
  u32 capacity_bits = 0;    ///< total storage in bits (default: 512 entries
                            ///< of max(wr,rd) width when left 0)
};

class WidthFifo : public sim::Component, public res::ResourceAware {
 public:
  WidthFifo(sim::Kernel& kernel, std::string name, WidthFifoConfig cfg);

  // -- write port ------------------------------------------------------
  /// Registered full flag: true when a wr_width chunk does not fit.
  [[nodiscard]] bool full() const;
  /// Write one wr_width chunk (compute phase; at most once per cycle).
  void write(u64 value);

  // -- read port -------------------------------------------------------
  /// Registered empty flag: true when no complete rd_width chunk exists.
  [[nodiscard]] bool empty() const;
  /// Value that read() would return this cycle.
  [[nodiscard]] u64 peek() const;
  /// Pop one rd_width chunk (compute phase; at most once per cycle).
  u64 read();

  // -- bulk (batched-burst) access --------------------------------------
  // The interconnect's batched-burst path applies a whole grant's worth
  // of port accesses in one tick. Each bulk call is semantically n
  // single-cycle accesses on n consecutive cycles with no other port
  // activity: the final storage, level, and lifetime counters are
  // bit-identical to the per-cycle sequence. Callers must size the bulk
  // with bulk_writable()/bulk_readable() first; both report 0 while an
  // access is already pending this cycle (mixed per-cycle + bulk use in
  // one cycle has no hardware meaning).

  /// Chunks writable back-to-back right now (capped at @p want).
  [[nodiscard]] u32 bulk_writable(u32 want) const;
  /// Chunks readable back-to-back right now (capped at @p want).
  [[nodiscard]] u32 bulk_readable(u32 want) const;
  /// Write @p n wr_width chunks, committing immediately.
  void bulk_write(const u64* values, u32 n);
  /// Pop @p n rd_width chunks into @p out, committing immediately.
  void bulk_read(u64* out, u32 n);

  // -- status ----------------------------------------------------------
  /// Bits currently stored (registered view).
  [[nodiscard]] u32 level_bits() const { return level_; }
  [[nodiscard]] const WidthFifoConfig& config() const { return cfg_; }

  /// Drop all contents (reset).
  void flush();

  // -- quiescence ------------------------------------------------------
  /// Wake @p c whenever this FIFO's registered state changes (a chunk is
  /// committed, popped, or the FIFO is flushed). Used by components that
  /// gate their clock while blocked on full()/empty(). Idempotent.
  void add_waiter(sim::Component& c);

  // -- lifetime stats ---------------------------------------------------
  [[nodiscard]] u64 writes() const { return writes_; }
  [[nodiscard]] u64 reads() const { return reads_; }
  [[nodiscard]] u32 max_level_bits() const { return max_level_; }

  // sim::Component
  void tick_commit() override;
  void state(snap::Fields& f) override;
  /// Quiescent whenever no access is pending: commit would only clear
  /// already-clear flags and recompute an unchanged level. write()/read()
  /// wake the FIFO for the cycle they occur in.
  [[nodiscard]] bool is_quiescent() const override {
    return !wrote_this_cycle_ && !read_this_cycle_ && !has_pending_write_ &&
           !pending_pop_;
  }

  // res::ResourceAware
  [[nodiscard]] res::ResourceNode resource_tree() const override;

 private:
  WidthFifoConfig cfg_;
  BitQueue storage_;
  u32 level_ = 0;  // registered level in bits

  bool wrote_this_cycle_ = false;
  bool read_this_cycle_ = false;
  u64 pending_write_ = 0;
  bool has_pending_write_ = false;
  bool pending_pop_ = false;

  u64 writes_ = 0;
  u64 reads_ = 0;
  u32 max_level_ = 0;

  std::vector<sim::Component*> waiters_;
  void notify_waiters();
};

}  // namespace ouessant::fifo
