#include "graph/csr_builder.hpp"

#include <algorithm>
#include <cstring>

namespace ssmis {

Graph CsrBuilder::finalize(Vertex n, std::vector<std::int64_t> offsets,
                           std::vector<Vertex> adj, int width) {
  // After pass 2, offsets[u] == end of row u for u in [0, n) and offsets[n]
  // is the untouched total, which equals end of row n-1; shift right to
  // recover [0, end(0), ..., end(n-2)] starts.
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;

  // Sort + deduplicate each row, compacting every row range toward its own
  // start (the write cursor never overtakes the read cursor). A range owns
  // offsets[begin, end) and rewrites each entry after reading it; the one
  // entry it reads but does not own — its end boundary, the next range's
  // first start — comes from the `edge` snapshot taken before the fan-out.
  const std::vector<std::int64_t> ranges = balanced_ranges(offsets.data(), n, width);
  const std::size_t parts = ranges.size() - 1;
  std::vector<std::int64_t> edge(parts + 1);
  for (std::size_t c = 0; c <= parts; ++c)
    edge[c] = offsets[static_cast<std::size_t>(ranges[c])];
  std::vector<std::int64_t> kept_end(parts);
  ThreadPool::shared().parallel_for(narrow_cast<int>(parts), width, [&](int ci) {
    const auto c = static_cast<std::size_t>(ci);
    std::int64_t write = edge[c];
    std::int64_t row_start = edge[c];
    for (auto u = static_cast<std::size_t>(ranges[c]);
         u < static_cast<std::size_t>(ranges[c + 1]); ++u) {
      const std::int64_t row_end = u + 1 == static_cast<std::size_t>(ranges[c + 1])
                                       ? edge[c + 1]
                                       : offsets[u + 1];
      std::sort(adj.begin() + row_start, adj.begin() + row_end);
      offsets[u] = write;
      for (std::int64_t i = row_start; i < row_end; ++i) {
        if (i == row_start || adj[static_cast<std::size_t>(i)] !=
                                  adj[static_cast<std::size_t>(i) - 1]) {
          adj[static_cast<std::size_t>(write++)] = adj[static_cast<std::size_t>(i)];
        }
      }
      row_start = row_end;
    }
    kept_end[c] = write;
  });

  // Close the gaps duplicates left between ranges, in range order (a
  // range's destination may overlap the previous range's source).
  std::int64_t write = parts > 0 ? kept_end[0] : 0;
  for (std::size_t c = 1; c < parts; ++c) {
    const std::int64_t shift = edge[c] - write;
    if (shift != 0) {
      std::memmove(adj.data() + write, adj.data() + edge[c],
                   static_cast<std::size_t>(kept_end[c] - edge[c]) * sizeof(Vertex));
      for (auto u = static_cast<std::size_t>(ranges[c]);
           u < static_cast<std::size_t>(ranges[c + 1]); ++u)
        offsets[u] -= shift;
    }
    write += kept_end[c] - edge[c];
  }
  offsets[static_cast<std::size_t>(n)] = write;

  // Return duplicate slack when it is worth a realloc; duplicate-free
  // streams (gnp, trees) take the no-op branch and never copy.
  const auto kept = static_cast<std::size_t>(write);
  if (kept < adj.size()) {
    adj.resize(kept);
    if (adj.capacity() - adj.size() > adj.size() / 8) adj.shrink_to_fit();
  }
  return Graph(n, std::move(offsets), std::move(adj));
}

}  // namespace ssmis
