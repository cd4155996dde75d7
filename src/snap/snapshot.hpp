// The versioned snapshot container: named sections + integrity trailer.
//
// A Snapshot is an ordered set of named sections, each carrying its own
// schema version and the byte stream of one field list (snap::Fields),
// written by Snapshot::write() and read back by Snapshot::read(). The
// kernel writes one section per component plus a "kernel" section;
// higher layers (Soc, OffloadService) add theirs on top. The container
// is what goes to disk:
//
//   "OSNP" magic            (4 bytes)
//   format version          (u32, currently 1)
//   section count           (u32)
//   sections: name_len:u16 name version:u32 size:u64 payload
//   CRC-32 of everything above (u32, polynomial 0xEDB88320)
//
// Compatibility rules (docs/fleet.md): the container format version
// gates parsing outright; per-section versions let an individual
// component evolve its schema and reject (or migrate) old payloads
// without invalidating the whole container format.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "snap/state.hpp"
#include "util/types.hpp"

namespace ouessant::snap {

/// Container format version written after the magic. Bump only when the
/// container layout itself changes.
inline constexpr u32 kFormatVersion = 1;

/// One named, versioned state payload.
struct Section {
  std::string name;
  u32 version = 1;
  std::vector<u8> bytes;
};

/// CRC-32 (IEEE, reflected, poly 0xEDB88320) of @p data. On an x86-64
/// CPU with PCLMULQDQ and SSE4.1 an input of 64 bytes or more is folded
/// 64 bytes a step by carry-less multiplication; everything else, and
/// the last bytes, go through tables eight bytes a step. Used as the
/// snapshot trailer; exposed for tests.
u32 crc32(std::span<const u8> data);

class Snapshot {
 public:
  /// Adds a section; duplicate names throw (component names are unique
  /// per kernel, so a duplicate means two stacks wrote into one
  /// snapshot).
  void add(std::string name, u32 version, std::vector<u8> bytes);

  bool has(std::string_view name) const;

  /// Section lookup; throws SnapshotError when absent (a restore asking
  /// for a component the snapshot does not contain).
  const Section& section(std::string_view name) const;

  /// Adds section @p name at @p version: the bytes @p state, a field
  /// list called as state(Fields&), writes when run over a StateWriter.
  template <class State>
  void write(std::string name, u32 version, State&& state) {
    StateWriter w;
    Fields f(w);
    state(f);
    add(std::move(name), version, w.take());
  }

  /// Runs the field list @p state over section @p s in place. Throws
  /// SnapshotError unless @p s is at @p version and the list reads it
  /// to its last byte.
  template <class State>
  static void read(const Section& s, u32 version, State&& state) {
    expect_version(s, version);
    StateReader r(s.bytes, s.name);
    Fields f(r);
    state(f);
    r.expect_end();
  }

  /// read() of the section named @p name; throws when it is absent.
  template <class State>
  void read(std::string_view name, u32 version, State&& state) const {
    read(section(name), version, std::forward<State>(state));
  }

  /// Throws SnapshotError unless @p s is at @p version. read() runs it
  /// first; a caller that vets every section before it reads any (the
  /// kernel) runs it directly.
  static void expect_version(const Section& s, u32 version);

  const std::vector<Section>& sections() const { return sections_; }

  /// Flat byte image (magic + version + sections + CRC trailer).
  std::vector<u8> serialize() const;

  /// serialize().size(), without building the image. Throws the
  /// SnapshotError serialize() throws for a section name too long.
  std::size_t serialized_size() const;

  /// Parses @p image, validating magic, format version, section
  /// framing, and the CRC trailer. Throws SnapshotError on any defect.
  static Snapshot deserialize(const std::vector<u8>& image);

  /// Writes serialize() to @p path; throws SimError on I/O failure.
  void save_file(const std::string& path) const;

  /// Reads @p path and deserializes it.
  static Snapshot load_file(const std::string& path);

 private:
  /// The first entry of by_name_ whose name is not below @p name.
  std::vector<u32>::const_iterator lower_bound(std::string_view name) const;

  std::vector<Section> sections_;
  std::vector<u32> by_name_;  ///< indices into sections_, sorted by name
};

}  // namespace ouessant::snap
