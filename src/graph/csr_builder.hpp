// Streaming CSR construction: builds a Graph directly from an edge stream in
// two passes, with no buffered edge list.
//
// A buffered builder materializes a std::vector<Edge> (16 bytes/edge),
// sorts it, and only then lays out the CSR — roughly 3x the final footprint
// at peak. CsrBuilder instead asks the caller to *replay* its edge stream
// twice:
//
//   pass 1  counts degrees (offsets array),
//   pass 2  places endpoints through a cursor folded into the offsets array,
//
// then sorts and deduplicates each row in place. Peak memory is the final
// CSR (8 bytes/vertex offsets + 4 bytes/endpoint adjacency) plus the
// duplicate slack of the stream itself — for duplicate-free generators like
// G(n,p) skip-sampling that is exactly the final footprint (~1.0x; <= ~1.3x
// with the transient slack of dup-emitting sources like the configuration
// model), which is what makes 10^7-vertex graphs constructible in CI memory.
//
// The edge source must be *replayable*: invoking it twice must emit the
// identical multiset of edges. Deterministic generators satisfy this for
// free by re-seeding their RNG per pass. Self-loops are dropped and
// endpoints validated, and the resulting Graph is byte-identical to the
// buffered sort-and-dedup build of the same edge multiset (rows end up
// sorted and deduplicated either way; test_csr_builder keeps that buffered
// build as its reference).
//
// Segmented sources. A source may come cut into `segments` independently
// replayable pieces, `source(segment, emit)` (a plain `source(emit)` is the
// one-segment case). Segments replay in any order on any thread, so both
// passes fan out over ThreadPool::shared(): degree counts and placement
// cursors advance by relaxed atomic increments, each segment sums its own
// replay hash, and rows are sorted and deduplicated per row range. Because
// every row ends sorted and deduplicated, the output depends only on the
// edge multiset — never on emit order, segment count, or thread count —
// so a segmented build is byte-identical to the one-segment build. One
// segment (or a call from inside a pool task) runs inline with plain
// increments, exactly the sequential build. Deciding how many segments a
// source is worth is the source's job (gen::gnp gates on graph size).
//
// `from_source_compressed` is the 10^8-vertex variant: instead of
// materializing the 12-bytes-per-endpoint plain CSR it encodes rows
// straight into the varint/delta codec, chunk by chunk. The source replays
// once for the degree pass and once per chunk; peak memory is the growing
// compressed payload plus one bounded chunk buffer (default 2^26 endpoints
// = 256 MB) plus the 4-bytes-per-vertex degree array — ~1.0x the final
// *compressed* size in the large sparse regime, where the plain builder's
// peak is the (much larger) plain CSR.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/compressed.hpp"
#include "graph/graph.hpp"
#include "rng/splitmix64.hpp"
#include "support/narrow.hpp"
#include "support/thread_pool.hpp"

namespace ssmis {

class CsrBuilder {
 public:
  // Builds a Graph on n vertices from `source`, a callable invoked exactly
  // twice as `source(emit)` where `emit(Vertex u, Vertex v)` records one
  // undirected edge. Throws std::invalid_argument on negative n or
  // out-of-range endpoints, std::logic_error if the two passes disagree
  // (detected via an order-independent multiset hash of each pass's stream,
  // so equal edge *counts* over different edges are caught too — with
  // 2^-64-style false-accept odds, not a guarantee).
  template <typename Source>
  static Graph from_source(Vertex n, Source&& source) {
    auto one = [&source](int, auto&& emit) { source(emit); };
    return build(std::false_type{}, n, 1, one, 1);
  }

  // The segmented form: `source(s, emit)` for s in [0, segments) emits
  // segment s, and each segment must replay its own multiset (the hash
  // check is per segment). Same contracts and result as the one-segment
  // build of the concatenated stream.
  template <typename Source>
  static Graph from_source(Vertex n, int segments, Source&& source) {
    const int width = fan_out_width(segments);
    if (width > 1) return build(std::true_type{}, n, segments, source, width);
    return build(std::false_type{}, n, segments, source, width);
  }

  // Default cap on the compressed sink's chunk buffer, in endpoints
  // (x4 bytes). The effective chunk is adaptive — see from_source_compressed.
  static constexpr std::int64_t kDefaultChunkEndpoints = std::int64_t{1} << 26;

  // Builds a compressed-storage Graph from `source` without materializing
  // the plain CSR: a degree pass sizes contiguous row chunks, then one
  // replay per chunk collects, sorts, deduplicates, and encodes those rows.
  // `chunk_endpoints` CAPS the in-flight chunk buffer; the effective chunk
  // is min(cap, max(2^22, total_endpoints / 8)), so small graphs never pay
  // a buffer sized for huge ones and huge graphs never exceed the cap —
  // scratch stays proportionate at ~8 replays until the cap bites.
  // Same contracts as from_source (replayability enforced via the
  // order-independent multiset hash on EVERY replay, endpoint validation,
  // self-loop dropping), and the result is structurally identical to
  // Graph::compress(from_source(n, source)).
  template <typename Source>
  static Graph from_source_compressed(
      Vertex n, Source&& source,
      std::int64_t chunk_endpoints = kDefaultChunkEndpoints) {
    auto one = [&source](int, auto&& emit) { source(emit); };
    return build_compressed(std::false_type{}, n, 1, one, 1, chunk_endpoints);
  }

  // The segmented form (see from_source): every replay fans out over the
  // segments, and each chunk's rows are sorted in parallel row ranges
  // before the encoder appends them in row order.
  template <typename Source>
  static Graph from_source_compressed(
      Vertex n, int segments, Source&& source,
      std::int64_t chunk_endpoints = kDefaultChunkEndpoints) {
    const int width = fan_out_width(segments);
    if (width > 1)
      return build_compressed(std::true_type{}, n, segments, source, width,
                              chunk_endpoints);
    return build_compressed(std::false_type{}, n, segments, source, width,
                            chunk_endpoints);
  }

 private:
  // Threads a build of `segments` segments fans out over: one for a single
  // segment or inside a pool task (parallel_for would run inline anyway),
  // else the host width.
  static int fan_out_width(int segments) {
    if (segments < 1) throw std::invalid_argument("CsrBuilder: segments must be positive");
    return segments > 1 && !ThreadPool::in_task() ? ThreadPool::hardware_width() : 1;
  }

  // The build bodies take a tag: std::true_type when segments run
  // concurrently, so counters and slots are touched through relaxed
  // atomics; std::false_type on the inline path, which compiles to plain
  // increments and stores.
  template <typename Shared, typename Source>
  static Graph build(Shared shared, Vertex n, int segments, Source& source,
                     int width) {
    if (n < 0) throw std::invalid_argument("CsrBuilder: negative vertex count");
    std::vector<std::int64_t> offsets(static_cast<std::size_t>(n) + 1, 0);

    // Pass 1: per-endpoint degree counts (duplicates included; self-loops
    // dropped here and in pass 2).
    std::vector<std::uint64_t> hash1(static_cast<std::size_t>(segments), 0);
    ThreadPool::shared().parallel_for(segments, width, [&](int s) {
      std::uint64_t h = 0;
      source(s, [&](Vertex u, Vertex v) {
        check_endpoints(n, u, v);
        if (u == v) return;
        bump(shared, offsets[static_cast<std::size_t>(u) + 1]);
        bump(shared, offsets[static_cast<std::size_t>(v) + 1]);
        h += edge_hash(u, v);
      });
      hash1[static_cast<std::size_t>(s)] = h;
    });
    for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

    // Pass 2: placement. offsets[u] doubles as the write cursor for row u;
    // after the pass offsets[u] holds the *end* of row u and is shifted back.
    // The stores are relaxed atomics on the shared path only so that a
    // non-replayable source overrunning a row stays a detected error, not a
    // data race.
    std::vector<Vertex> adj(static_cast<std::size_t>(offsets.back()));
    ThreadPool::shared().parallel_for(segments, width, [&](int s) {
      std::uint64_t h = 0;
      source(s, [&](Vertex u, Vertex v) {
        check_endpoints(n, u, v);
        if (u == v) return;
        const auto cu = static_cast<std::size_t>(
            bump(shared, offsets[static_cast<std::size_t>(u)]));
        const auto cv = static_cast<std::size_t>(
            bump(shared, offsets[static_cast<std::size_t>(v)]));
        if (cu >= adj.size() || cv >= adj.size())
          throw std::logic_error("CsrBuilder: edge source is not replayable "
                                 "(pass 2 emitted more edges than pass 1)");
        put(shared, adj[cu], v);
        put(shared, adj[cv], u);
        h += edge_hash(u, v);
      });
      if (h != hash1[static_cast<std::size_t>(s)])
        throw std::logic_error(
            "CsrBuilder: edge source is not replayable (the two passes emitted "
            "different edge multisets)");
    });
    return finalize(n, std::move(offsets), std::move(adj), width);
  }

  template <typename Shared, typename Source>
  static Graph build_compressed(Shared shared, Vertex n, int segments,
                                Source& source, int width,
                                std::int64_t chunk_endpoints) {
    if (n < 0) throw std::invalid_argument("CsrBuilder: negative vertex count");
    if (chunk_endpoints <= 0)
      throw std::invalid_argument("CsrBuilder: chunk_endpoints must be positive");

    // Degree pass (duplicates included — dedup happens per-row below).
    std::vector<Vertex> degrees(static_cast<std::size_t>(n), 0);
    std::vector<std::uint64_t> hash1(static_cast<std::size_t>(segments), 0);
    std::vector<std::int64_t> seg_endpoints(static_cast<std::size_t>(segments), 0);
    ThreadPool::shared().parallel_for(segments, width, [&](int s) {
      std::uint64_t h = 0;
      std::int64_t endpoints = 0;
      source(s, [&](Vertex u, Vertex v) {
        check_endpoints(n, u, v);
        if (u == v) return;
        bump(shared, degrees[static_cast<std::size_t>(u)]);
        bump(shared, degrees[static_cast<std::size_t>(v)]);
        endpoints += 2;
        h += edge_hash(u, v);
      });
      hash1[static_cast<std::size_t>(s)] = h;
      seg_endpoints[static_cast<std::size_t>(s)] = endpoints;
    });
    std::int64_t total_endpoints = 0;
    for (const std::int64_t e : seg_endpoints) total_endpoints += e;
    chunk_endpoints = std::min<std::int64_t>(
        chunk_endpoints,
        std::max<std::int64_t>(std::int64_t{1} << 22, total_endpoints / 8));

    CompressedAdjacencyEncoder enc(n);
    // Exact-bound reservation: every encoded id/gap is < n and degrees only
    // shrink under dedup, so this sum can never be exceeded — payload
    // growth stays realloc-free (no doubling transient at the 10^8 scale).
    {
      const std::size_t id_len = cadj::varint_len(
          n > 0 ? narrow_cast<std::uint32_t>(n) : 0u);
      std::size_t bound = 0;
      for (const Vertex d : degrees)
        bound += cadj::varint_len(narrow_cast<std::uint32_t>(d)) +
                 static_cast<std::size_t>(d) * id_len;
      enc.reserve(bound);
    }
    std::vector<Vertex> buf;
    std::vector<std::int64_t> start;  // row boundaries within the chunk
    std::vector<std::int64_t> cursor;
    Vertex lo = 0;
    while (lo < n) {
      // Grow the chunk while it fits the endpoint budget (a single row
      // larger than the budget gets a chunk of its own). The row-count cap
      // at a quarter of the budget bounds the 16 B/row start+cursor arrays
      // by the chunk buffer itself, even across long low-degree runs.
      Vertex hi = lo;
      std::int64_t endpoints = 0;
      while (hi < n) {
        const auto d = static_cast<std::int64_t>(degrees[static_cast<std::size_t>(hi)]);
        if (hi > lo && (endpoints + d > chunk_endpoints ||
                        static_cast<std::int64_t>(hi - lo) >=
                            std::max<std::int64_t>(1, chunk_endpoints / 4)))
          break;
        endpoints += d;
        ++hi;
      }
      const std::size_t rows = static_cast<std::size_t>(hi - lo);
      start.assign(rows + 1, 0);
      for (std::size_t r = 0; r < rows; ++r)
        start[r + 1] = start[r] +
                       degrees[static_cast<std::size_t>(lo) + r];
      buf.resize(static_cast<std::size_t>(endpoints));
      cursor.assign(start.begin(), start.end() - 1);

      ThreadPool::shared().parallel_for(segments, width, [&](int s) {
        std::uint64_t h = 0;
        const auto place = [&](Vertex at, Vertex nbr) {
          if (at < lo || at >= hi) return;
          const auto r = static_cast<std::size_t>(at - lo);
          const std::int64_t c = bump(shared, cursor[r]);
          if (c >= start[r + 1])
            throw std::logic_error(
                "CsrBuilder: edge source is not replayable (a replay emitted "
                "more edges than the degree pass)");
          put(shared, buf[static_cast<std::size_t>(c)], nbr);
        };
        source(s, [&](Vertex u, Vertex v) {
          check_endpoints(n, u, v);
          if (u == v) return;
          h += edge_hash(u, v);
          place(u, v);
          place(v, u);
        });
        if (h != hash1[static_cast<std::size_t>(s)])
          throw std::logic_error(
              "CsrBuilder: edge source is not replayable (a replay emitted a "
              "different edge multiset than the degree pass)");
      });

      // Sort and deduplicate each row; cursor[r] becomes the row's
      // deduplicated end.
      const std::vector<std::int64_t> ranges =
          balanced_ranges(start.data(), narrow_cast<std::int64_t>(rows), width);
      ThreadPool::shared().parallel_for(
          narrow_cast<int>(ranges.size()) - 1, width, [&](int c) {
            for (auto r = static_cast<std::size_t>(ranges[static_cast<std::size_t>(c)]);
                 r < static_cast<std::size_t>(ranges[static_cast<std::size_t>(c) + 1]);
                 ++r) {
              Vertex* first = buf.data() + start[r];
              Vertex* last = buf.data() + start[r + 1];
              std::sort(first, last);
              cursor[r] = std::unique(first, last) - buf.data();
            }
          });
      for (std::size_t r = 0; r < rows; ++r)
        enc.add_row({buf.data() + start[r],
                     static_cast<std::size_t>(cursor[r] - start[r])});
      lo = hi;
    }
    // The scratch is dead; release it before finish() so its slack-return
    // copy (if any) is not stacked on top of the chunk buffers.
    degrees = {};
    buf = {};
    start = {};
    cursor = {};
    return std::move(enc).finish();
  }

  // x++, atomically when shared.
  template <typename T>
  static T bump(std::true_type, T& x) {
    return std::atomic_ref<T>(x).fetch_add(1, std::memory_order_relaxed);
  }
  template <typename T>
  static T bump(std::false_type, T& x) {
    return x++;
  }

  // slot = value, atomically when shared.
  template <typename T>
  static void put(std::true_type, T& slot, T value) {
    std::atomic_ref<T>(slot).store(value, std::memory_order_relaxed);
  }
  template <typename T>
  static void put(std::false_type, T& slot, T value) {
    slot = value;
  }

  // Commutative per-edge hash summed over a pass: order-independent, so the
  // passes may emit in any order, but (with overwhelming probability) not
  // different multisets.
  static std::uint64_t edge_hash(Vertex u, Vertex v) {
    return splitmix64_mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(u))
                           << 32) |
                          static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))) +
           splitmix64_mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))
                           << 32) |
                          static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
  }

  static void check_endpoints(Vertex n, Vertex u, Vertex v) {
    if (u < 0 || v < 0 || u >= n || v >= n) {
      throw std::invalid_argument("CsrBuilder: edge (" + std::to_string(u) + "," +
                                  std::to_string(v) + ") out of range [0," +
                                  std::to_string(n) + ")");
    }
  }

  // Restores the cursor-shifted offsets, sorts each row, deduplicates in
  // place (row ranges in parallel over `width` threads), and wraps the
  // arrays in a Graph.
  static Graph finalize(Vertex n, std::vector<std::int64_t> offsets,
                        std::vector<Vertex> adj, int width);
};

}  // namespace ssmis
