#include "snap/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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

/// Folds @p n bytes at @p p into the CRC register @p c, eight bytes a
/// step, then one.
u32 crc32_tables(u32 c, const u8* p, std::size_t n) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const u32 lo = c ^ load_le32(p);
    const u32 hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). Each
// constant is x^k mod P(x), bit-reflected, for the reflected polynomial
// 0xEDB88320; they are the values zlib and Chromium use. Every helper a
// target("pclmul,sse4.1") function calls carries the same attribute:
// GCC refuses to inline an intrinsic into a function (or a lambda)
// without it.

/// @p x folded across 128 bits with the constant pair @p k, plus @p data.
__attribute__((target("pclmul,sse4.1")))
inline __m128i fold16(__m128i x, __m128i k, __m128i data) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), data);
}

__attribute__((target("pclmul,sse4.1")))
inline __m128i load16(const u8* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The CRC register @p c after @p n bytes at @p p, where @p n >= 64 is a
/// multiple of 16: four 128-bit lanes fold 64 bytes a step, then fold
/// into one lane, which takes the 16-byte blocks left and is reduced to
/// 32 bits (fold to 64 bits, then a Barrett step).
__attribute__((target("pclmul,sse4.1")))
u32 crc32_fold(u32 c, const u8* p, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01'c6e4'1596, 0x01'5444'2bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00'ccaa'009e, 0x01'7519'97d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x01'63cd'6124);
  const __m128i poly = _mm_set_epi64x(0x01'f701'1641, 0x01'db71'0641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  __m128i x1 =
      _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x1 = fold16(x1, k1k2, load16(p));
    x2 = fold16(x2, k1k2, load16(p + 16));
    x3 = fold16(x3, k1k2, load16(p + 32));
    x4 = fold16(x4, k1k2, load16(p + 48));
  }
  x1 = fold16(x1, k3k4, x2);
  x1 = fold16(x1, k3k4, x3);
  x1 = fold16(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold16(x1, k3k4, load16(p));

  // 128 -> 64 bits.
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<u32>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// PCLMULQDQ and SSE4.1, asked of the CPU once.
bool has_clmul() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") &&
           __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}
#endif

}  // namespace

u32 crc32(std::span<const u8> data) {
  u32 c = 0xFFFF'FFFFu;
  const u8* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__)
  if (n >= 64 && has_clmul()) {
    const std::size_t bulk = n & ~std::size_t{15};
    c = crc32_fold(c, p, bulk);
    p += bulk;
    n -= bulk;
  }
#endif
  return crc32_tables(c, p, n) ^ 0xFFFF'FFFFu;
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

void Snapshot::expect_version(const Section& s, u32 version) {
  if (s.version != version) {
    throw SnapshotError("snapshot section '" + s.name + "' version " +
                        std::to_string(s.version) +
                        " unsupported (this build reads version " +
                        std::to_string(version) + ")");
  }
}

std::size_t Snapshot::serialized_size() const {
  // Magic, version, count, the sections, CRC.
  std::size_t size = kMagic.size() + 4 + 4 + 4;
  for (const Section& s : sections_) {
    if (s.name.size() > 0xFFFF) {
      throw SnapshotError("snapshot: section name too long: " + s.name);
    }
    size += 2 + s.name.size() + 4 + 8 + s.bytes.size();
  }
  return size;
}

std::vector<u8> Snapshot::serialize() const {
  // Size the image once, then write it in place.
  const std::size_t size = serialized_size();
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
