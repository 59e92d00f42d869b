// Byte-level primitives of the compressed adjacency codec: bounds-checked
// LEB128 varints, delta-coded row decode, and superblock-sampled row seek.
//
// Row layout (rows are concatenated in vertex order inside one payload):
//
//   varint(deg) [varint(v_0)] [varint(v_1 - v_0)] ... [varint(v_{d-1} - v_{d-2})]
//
// Neighbor lists are sorted and duplicate-free (the Graph invariant), so
// every gap is >= 1 and the deltas compress: a 10^8-vertex avg-degree-8
// G(n,p) row costs ~4 bytes/endpoint while the 8-byte-per-vertex offsets
// array of plain CSR shrinks into a sampled index (one u64 per
// kSuperblock = 8 rows, ~1 byte/vertex).
//
// Every decode path here is bounds-checked against the payload end and
// validates decoded values against the vertex universe — a hostile or
// truncated payload throws std::runtime_error, it never reads out of bounds
// and never hands back a neighbor id that would index per-vertex state out
// of range. (Structural lies a checksummed-but-wrong writer can tell —
// self-loops, asymmetry — are the full-validation pass's job; see
// compressed.hpp.)
#pragma once

#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace ssmis::cadj {

// Rows per sampled index entry. The index stores the byte offset of every
// kSuperblock-th row, so a random row seek is one index lookup plus at most
// kSuperblock - 1 varint-level row skips — O(1) for a fixed superblock.
//
// 8 rows trades ~1 byte/vertex of index (+0.22 B/edge at average degree 8;
// 100 MB at n = 10^8) for seeks that skip at most 7 rows. Measured on a
// 4-vCPU x86-64 host with the misbench scale-compressed workload (G(2*10^6),
// average degree 8) against the former 64: random-order seeks 3-5x faster,
// stabilize ~2x faster, peak RSS +1-2 MB. A per-row index (1) cut stabilize
// ~15% further but raised peak RSS ~10%; 4 was within noise of 8 at twice
// the index. The `.ssg` v2 header records this value and readers reject
// any other, so changing it invalidates saved v2 files.
inline constexpr std::int64_t kSuperblock = 8;

// Index entries for an n-vertex payload: one per started superblock plus
// the end-of-payload sentinel.
[[nodiscard]] inline constexpr std::size_t index_entries(std::int64_t n) {
  return static_cast<std::size_t>((n + kSuperblock - 1) / kSuperblock) + 1;
}

[[noreturn]] inline void fail(const char* what) {
  throw std::runtime_error(std::string("compressed adjacency: ") + what);
}

// Encoded size of one varint (1..5 bytes for values < 2^31). Monotone in
// `value`, so varint_len(n) bounds the bytes of any vertex id or gap in an
// n-vertex payload — what the compress sink's exact reservation rests on.
[[nodiscard]] inline std::size_t varint_len(std::uint32_t value) {
  std::size_t len = 1;
  while (value >= 0x80u) {
    value >>= 7;
    ++len;
  }
  return len;
}

// Appends the LEB128 encoding of `value` (7 data bits per byte, high bit =
// continuation) to `out`. Values are vertex ids / gaps / degrees: always
// non-negative and < 2^31, so at most 5 bytes.
template <typename ByteVec>
inline void append_varint(ByteVec& out, std::uint32_t value) {
  while (value >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(value | 0x80u));
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

// Decodes one varint at `p`, advancing it. Throws on payload overrun, on an
// encoding longer than 5 bytes, on a value outside [0, 2^31), and on a
// NON-MINIMAL encoding (a zero-padded final byte, e.g. 1 as 0x81 0x00) —
// the codec is canonical, one byte stream per adjacency structure, which is
// what lets payload equality stand in for structural equality and makes v2
// checksums comparable across writers.
[[nodiscard]] inline std::uint32_t read_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    if (p == end) fail("truncated payload (varint runs past the end)");
    const std::uint8_t byte = *p++;
    value |= static_cast<std::uint64_t>(byte & 0x7fu) << shift;
    if ((byte & 0x80u) == 0) {
      if (shift > 0 && byte == 0)
        fail("varint overrun (non-canonical zero-padded encoding)");
      break;
    }
    shift += 7;
    if (shift >= 35) fail("varint overrun (encoding longer than 5 bytes)");
  }
  if (value > 0x7fffffffull) fail("varint overrun (value outside the vertex range)");
  return static_cast<std::uint32_t>(value);
}

// Skips one varint without decoding its value (continuation-bit scan).
inline void skip_varint(const std::uint8_t*& p, const std::uint8_t* end) {
  for (int len = 0; len < 5; ++len) {
    if (p == end) fail("truncated payload (varint runs past the end)");
    if ((*p++ & 0x80u) == 0) return;
  }
  fail("varint overrun (encoding longer than 5 bytes)");
}

// Reads a row's degree header and sanity-bounds it: a degree can neither
// exceed the vertex universe nor the bytes left in the payload (every
// neighbor costs at least one byte), so hostile headers cannot provoke
// grotesque scratch allocations or long blind scans.
[[nodiscard]] inline std::int64_t read_degree(const std::uint8_t*& p, const std::uint8_t* end,
                                std::int64_t n) {
  const std::int64_t deg = read_varint(p, end);
  if (deg > n) fail("corrupt row header (degree exceeds vertex count)");
  if (deg > end - p) fail("truncated payload (row shorter than its degree)");
  return deg;
}

// Advances `p` past one full row (degree header + payload).
inline void skip_row(const std::uint8_t*& p, const std::uint8_t* end,
                     std::int64_t n) {
  const std::int64_t deg = read_degree(p, end, n);
  for (std::int64_t i = 0; i < deg; ++i) skip_varint(p, end);
}

// Decodes the row at `p` (advancing it), invoking `f(v)` per neighbor in
// ascending order. `f` may return void, or bool with false = stop early
// (the cursor position is then mid-row; callers that continue decoding must
// re-seek). Gap-zero entries (duplicates) and ids >= n throw: even the
// trusted load path can never feed the engine a neighbor id that indexes
// its per-vertex arrays out of range.
template <typename F>
inline void visit_row(const std::uint8_t*& p, const std::uint8_t* end,
                      std::int64_t n, F&& f) {
  const std::int64_t deg = read_degree(p, end, n);
  std::int64_t v = -1;
  for (std::int64_t i = 0; i < deg; ++i) {
    const std::uint32_t delta = read_varint(p, end);
    if (i > 0 && delta == 0) fail("corrupt row (duplicate neighbor)");
    v = (i == 0) ? static_cast<std::int64_t>(delta)
                 : v + static_cast<std::int64_t>(delta);
    if (v >= n) fail("corrupt row (neighbor id out of range)");
    if constexpr (std::is_void_v<std::invoke_result_t<F&, std::int32_t>>) {
      f(static_cast<std::int32_t>(v));
    } else {
      if (!f(static_cast<std::int32_t>(v))) return;
    }
  }
}

// Decodes the row at `p` into `buf` (cleared first), advancing `p` — the
// one shared materialization loop behind Graph's scratch-span paths.
template <typename Vec>
inline void decode_row_into(const std::uint8_t*& p, const std::uint8_t* end,
                            std::int64_t n, Vec& buf) {
  buf.clear();
  visit_row(p, end, n, [&](std::int32_t v) { buf.push_back(v); });
}

// Byte position of row `u`: one sampled-index lookup plus at most
// kSuperblock - 1 row skips. The index entry itself is validated against
// the payload size (an index/offset mismatch in a corrupted file throws
// here rather than seeding an out-of-bounds scan).
[[nodiscard]] inline const std::uint8_t* seek_row(const std::uint8_t* payload,
                                    std::size_t payload_bytes,
                                    const std::uint64_t* index, std::int64_t n,
                                    std::int64_t u) {
  const std::uint64_t start = index[static_cast<std::size_t>(u / kSuperblock)];
  if (start > payload_bytes) fail("index/offset mismatch (entry past payload end)");
  const std::uint8_t* p = payload + start;
  const std::uint8_t* end = payload + payload_bytes;
  for (std::int64_t r = u % kSuperblock; r > 0; --r) skip_row(p, end, n);
  return p;
}

}  // namespace ssmis::cadj
