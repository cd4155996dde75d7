// CycleLedger: analytic cycle attribution (DESIGN.md §10).
//
// The paper's Table I decomposes each integration style's cost into
// transfer / compute / control-overhead shares — but it derives them by
// subtracting end totals. The ledger reproduces the decomposition
// *analytically*: every component credits its cycles to one of five
// categories, and close_track() proves the per-component categories sum
// exactly to the run's wall cycles (padding only the declared remainder
// category, and refusing to close a track that over-committed).
//
// Category semantics (per component):
//   transfer  cycles moving data (bus beats, controller XFER waits)
//   compute   cycles doing the actual work (RAC busy, CPU compute)
//   control   sequencing overhead (arbitration, fetch/decode, FSM hops)
//   wait      stalled on another component (wait states, exec waits)
//   idle      clocked (or gated) with nothing to do
#pragma once

#include <string>
#include <vector>

#include "util/types.hpp"

namespace ouessant::obs {

enum class Category : u8 { kTransfer = 0, kCompute, kControl, kWait, kIdle };
inline constexpr std::size_t kNumCategories = 5;

class CycleLedger {
 public:
  using TrackId = u32;

  /// Create a component track. Names must be unique (ConfigError).
  TrackId add_track(const std::string& name);

  /// Attribute @p cycles of @p t to @p c. Tracks accept credits only
  /// until they are closed (SimError after).
  void credit(TrackId t, Category c, u64 cycles);

  /// Seal @p t against @p wall cycles: the uncredited remainder is
  /// padded into @p remainder, making the track sum exactly @p wall.
  /// Returns the padding applied; throws SimError when the track has
  /// credited MORE than @p wall (an over-attribution is always a bug).
  u64 close_track(TrackId t, Cycle wall, Category remainder);

  /// Prove the ledger: every track closed, every track's categories
  /// summing exactly to @p wall. Throws SimError otherwise.
  void validate(Cycle wall) const;

  [[nodiscard]] u64 total(TrackId t, Category c) const;
  /// Sum of all five categories of @p t.
  [[nodiscard]] u64 track_sum(TrackId t) const;
  /// Sum of @p c across every track.
  [[nodiscard]] u64 category_sum(Category c) const;
  [[nodiscard]] u64 padding(TrackId t) const;
  [[nodiscard]] bool closed(TrackId t) const;

  [[nodiscard]] std::size_t track_count() const { return tracks_.size(); }
  [[nodiscard]] const std::string& track_name(TrackId t) const;

  /// Table-I-style text table: one row per track, cycle counts plus the
  /// percentage split against @p wall.
  [[nodiscard]] std::string render(Cycle wall) const;

 private:
  struct Track {
    std::string name;
    u64 cat[kNumCategories] = {0, 0, 0, 0, 0};
    u64 pad = 0;
    bool closed = false;
  };

  [[nodiscard]] Track& at(TrackId t);
  [[nodiscard]] const Track& at(TrackId t) const;

  std::vector<Track> tracks_;
};

}  // namespace ouessant::obs
