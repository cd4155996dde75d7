#include "snap/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

namespace ouessant::snap {

namespace {

constexpr std::array<char, 4> kMagic = {'O', 'S', 'N', 'P'};

/// Slicing-by-8 tables: t[0] is the bytewise CRC-32 table, and t[k][b]
/// is the CRC of byte b followed by k zero bytes, so one step folds
/// eight input bytes with eight lookups.
constexpr std::array<std::array<u32, 256>, 8> make_crc_tables() {
  std::array<std::array<u32, 256>, 8> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB8'8320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (u32 i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr std::array<std::array<u32, 256>, 8> kCrcTables = make_crc_tables();

u32 load_le32(const u8* p) {
  return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
         (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
}

/// Write the low @p n bytes of @p v little-endian at @p p; returns the
/// byte after them.
u8* put_le(u8* p, u64 v, int n) {
  for (int i = 0; i < n; ++i) *p++ = static_cast<u8>(v >> (8 * i));
  return p;
}

/// Copy @p bytes to @p p; returns the byte after them.
template <class Bytes>
u8* put_bytes(u8* p, const Bytes& bytes) {
  return std::copy(bytes.begin(), bytes.end(), p);
}

/// Bounds-checked cursor over a raw image; all failures throw with the
/// byte offset so a truncated or bit-flipped file is diagnosable.
struct Cursor {
  std::span<const u8> buf;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& why) const {
    throw SnapshotError("snapshot image at byte " + std::to_string(pos) +
                        ": " + why);
  }
  // pos <= buf.size() always holds, so this cannot wrap for any u64 n.
  void need(u64 n) const {
    if (n > buf.size() - pos) fail("truncated");
  }
  u16 u16_() {
    need(2);
    const u16 v = static_cast<u16>(buf[pos] | (buf[pos + 1] << 8));
    pos += 2;
    return v;
  }
  u32 u32_() {
    need(4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(buf[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  u64 u64_() {
    need(8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(buf[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
};

}  // namespace

u32 crc32(std::span<const u8> data) {
  const auto& t = kCrcTables;
  u32 c = 0xFFFF'FFFFu;
  const u8* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = c ^ load_le32(p);
    const u32 hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFF'FFFFu;
}

std::vector<u32>::const_iterator Snapshot::lower_bound(
    std::string_view name) const {
  return std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](u32 i, std::string_view n) { return sections_[i].name < n; });
}

void Snapshot::add(std::string name, u32 version, std::vector<u8> bytes) {
  const auto at = lower_bound(name);
  if (at != by_name_.end() && sections_[*at].name == name) {
    throw SnapshotError("snapshot: duplicate section '" + name + "'");
  }
  by_name_.insert(at, static_cast<u32>(sections_.size()));
  sections_.push_back(
      Section{std::move(name), version, std::move(bytes)});
}

bool Snapshot::has(std::string_view name) const {
  const auto at = lower_bound(name);
  return at != by_name_.end() && sections_[*at].name == name;
}

const Section& Snapshot::section(std::string_view name) const {
  const auto at = lower_bound(name);
  if (at == by_name_.end() || sections_[*at].name != name) {
    throw SnapshotError("snapshot: missing section '" + std::string(name) +
                        "'");
  }
  return sections_[*at];
}

std::vector<u8> Snapshot::serialize() const {
  // Size the image once (magic, version, count, the sections, CRC), then
  // write it in place.
  std::size_t size = kMagic.size() + 4 + 4 + 4;
  for (const Section& s : sections_) {
    if (s.name.size() > 0xFFFF) {
      throw SnapshotError("snapshot: section name too long: " + s.name);
    }
    size += 2 + s.name.size() + 4 + 8 + s.bytes.size();
  }
  std::vector<u8> out(size);
  u8* p = put_bytes(out.data(), kMagic);
  p = put_le(p, kFormatVersion, 4);
  p = put_le(p, sections_.size(), 4);
  for (const Section& s : sections_) {
    p = put_le(p, s.name.size(), 2);
    p = put_bytes(p, s.name);
    p = put_le(p, s.version, 4);
    p = put_le(p, s.bytes.size(), 8);
    p = put_bytes(p, s.bytes);
  }
  const std::span<const u8> body(out.data(), size - 4);
  put_le(p, crc32(body), 4);
  return out;
}

Snapshot Snapshot::deserialize(const std::vector<u8>& image) {
  // CRC first: distinguish "corrupted" from "structurally wrong" in the
  // error message, and never parse garbage framing.
  if (image.size() < kMagic.size() + 4 + 4 + 4) {
    throw SnapshotError("snapshot image too short (" +
                        std::to_string(image.size()) + " bytes)");
  }
  const std::span<const u8> body(image.data(), image.size() - 4);
  if (crc32(body) != load_le32(image.data() + body.size())) {
    throw SnapshotError("snapshot CRC mismatch (corrupted image)");
  }

  Cursor c{body};
  c.need(kMagic.size());
  for (char m : kMagic) {
    if (body[c.pos++] != static_cast<u8>(m)) {
      c.fail("bad magic (not an Ouessant snapshot)");
    }
  }
  const u32 version = c.u32_();
  if (version != kFormatVersion) {
    throw SnapshotError("snapshot format version " + std::to_string(version) +
                        " unsupported (this build reads version " +
                        std::to_string(kFormatVersion) + ")");
  }
  const u32 count = c.u32_();
  Snapshot snap;
  for (u32 i = 0; i < count; ++i) {
    const u16 name_len = c.u16_();
    c.need(name_len);
    std::string name(reinterpret_cast<const char*>(body.data() + c.pos),
                     name_len);
    c.pos += name_len;
    const u32 sec_version = c.u32_();
    const u64 size = c.u64_();
    c.need(size);
    const auto payload = body.subspan(c.pos, size);
    std::vector<u8> bytes(payload.begin(), payload.end());
    c.pos += size;
    snap.add(std::move(name), sec_version, std::move(bytes));
  }
  if (c.pos != body.size()) {
    c.fail("trailing bytes after last section");
  }
  return snap;
}

void Snapshot::save_file(const std::string& path) const {
  const std::vector<u8> image = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw SimError("snapshot: cannot open '" + path + "' for writing");
  }
  const std::size_t n = std::fwrite(image.data(), 1, image.size(), f);
  const bool ok = (n == image.size()) && (std::fclose(f) == 0);
  if (!ok) {
    throw SimError("snapshot: short write to '" + path + "'");
  }
}

Snapshot Snapshot::load_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw SimError("snapshot: cannot open '" + path + "'");
  }
  std::vector<u8> image;
  std::array<u8, 65536> chunk;
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    image.insert(image.end(), chunk.begin(), chunk.begin() + n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    throw SimError("snapshot: read error on '" + path + "'");
  }
  return deserialize(image);
}

}  // namespace ouessant::snap
