#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "graph/csr_builder.hpp"

namespace ssmis {

struct Graph::Storage {
  std::vector<std::int64_t> offsets;
  std::vector<Vertex> adj;
};

struct Graph::CompressedStorage {
  std::vector<std::uint64_t> index;
  std::vector<std::uint8_t> payload;
};

Graph::Graph() = default;

Graph::Graph(Vertex n, std::vector<std::int64_t> offsets, std::vector<Vertex> adj)
    : n_(n) {
  auto storage = std::make_shared<Storage>();
  storage->offsets = std::move(offsets);
  storage->adj = std::move(adj);
  offsets_ = storage->offsets.data();
  adj_ = storage->adj.data();
  adj_size_ = storage->adj.size();
  backing_ = std::move(storage);
}

Graph Graph::from_external_csr(Vertex n, const std::int64_t* offsets,
                               const Vertex* adj, std::size_t adj_len,
                               std::shared_ptr<const void> backing) {
  Graph g;
  g.n_ = n;
  g.offsets_ = offsets;
  g.adj_ = adj;
  g.adj_size_ = adj_len;
  g.mapped_ = true;
  g.backing_ = std::move(backing);
  return g;
}

Graph Graph::from_compressed(Vertex n, std::int64_t adj_len,
                             std::vector<std::uint64_t> index,
                             std::vector<std::uint8_t> payload) {
  if (n < 0 || adj_len < 0 || index.size() != cadj::index_entries(n))
    throw std::invalid_argument("Graph::from_compressed: malformed codec arrays");
  auto storage = std::make_shared<CompressedStorage>();
  storage->index = std::move(index);
  storage->payload = std::move(payload);
  Graph g;
  g.n_ = n;
  g.adj_size_ = static_cast<std::size_t>(adj_len);
  g.compressed_ = true;
  g.offsets_ = nullptr;
  g.cindex_ = storage->index.data();
  g.cpayload_ = storage->payload.data();
  g.cpayload_bytes_ = storage->payload.size();
  g.backing_ = std::move(storage);
  return g;
}

Graph Graph::from_external_compressed(Vertex n, std::int64_t adj_len,
                                      const std::uint64_t* index,
                                      const std::uint8_t* payload,
                                      std::size_t payload_bytes,
                                      std::shared_ptr<const void> backing) {
  if (n < 0 || adj_len < 0)
    throw std::invalid_argument(
        "Graph::from_external_compressed: malformed codec arrays");
  Graph g;
  g.n_ = n;
  g.adj_size_ = static_cast<std::size_t>(adj_len);
  g.compressed_ = true;
  g.mapped_ = true;
  g.offsets_ = nullptr;
  g.cindex_ = index;
  g.cpayload_ = payload;
  g.cpayload_bytes_ = payload_bytes;
  g.backing_ = std::move(backing);
  return g;
}

Graph Graph::from_edges(Vertex n, std::span<const Edge> edges) {
  return CsrBuilder::from_source(n, [edges](auto&& emit) {
    for (const auto& [u, v] : edges) emit(u, v);
  });
}

Graph Graph::from_edges(Vertex n, std::initializer_list<Edge> edges) {
  return from_edges(n, std::span<const Edge>(edges.begin(), edges.size()));
}

void Graph::fail_needs_decode() {
  throw std::logic_error(
      "Graph: raw CSR access on compressed storage — use for_each_neighbor, "
      "neighbors(u, scratch), or RowStream (or Graph::decompress)");
}

void Graph::fail_not_compressed() {
  throw std::logic_error("Graph: codec access on plain CSR storage");
}

std::span<const Vertex> Graph::decode_row(Vertex u, NeighborScratch& scratch) const {
  const std::uint8_t* p = cadj::seek_row(cpayload_, cpayload_bytes_, cindex_, n_, u);
  cadj::decode_row_into(p, cpayload_ + cpayload_bytes_, n_, scratch.buf);
  return {scratch.buf.data(), scratch.buf.size()};
}

Vertex Graph::compressed_degree(Vertex u) const {
  const std::uint8_t* p = cadj::seek_row(cpayload_, cpayload_bytes_, cindex_, n_, u);
  return narrow_cast<Vertex>(
      cadj::read_degree(p, cpayload_ + cpayload_bytes_, n_));
}

std::span<const std::uint64_t> Graph::compressed_index() const {
  if (!compressed_) fail_not_compressed();
  return {cindex_, cadj::index_entries(n_)};
}

std::span<const std::uint8_t> Graph::compressed_payload() const {
  if (!compressed_) fail_not_compressed();
  return {cpayload_, cpayload_bytes_};
}

namespace {

// One sequential degree-header sweep — O(n) span math on plain storage,
// O(payload bytes) on compressed (never n random seeks) — shared by
// max_degree and degrees.
template <typename Fn>
void for_each_degree(const Graph& g, bool compressed, const std::uint8_t* payload,
                     std::size_t payload_bytes, Fn&& fn) {
  const Vertex n = g.num_vertices();
  if (!compressed) {
    for (Vertex u = 0; u < n; ++u) fn(u, g.degree(u));
    return;
  }
  const std::uint8_t* p = payload;
  const std::uint8_t* end = payload + payload_bytes;
  for (Vertex u = 0; u < n; ++u) {
    const std::int64_t deg = cadj::read_degree(p, end, n);
    fn(u, static_cast<Vertex>(deg));
    for (std::int64_t i = 0; i < deg; ++i) cadj::skip_varint(p, end);
  }
}

}  // namespace

Vertex Graph::max_degree() const {
  Vertex best = 0;
  for_each_degree(*this, compressed_, cpayload_, cpayload_bytes_,
                  [&](Vertex, Vertex d) { best = std::max(best, d); });
  return best;
}

std::vector<Vertex> Graph::degrees() const {
  std::vector<Vertex> out(static_cast<std::size_t>(n_));
  for_each_degree(*this, compressed_, cpayload_, cpayload_bytes_,
                  [&](Vertex u, Vertex d) { out[static_cast<std::size_t>(u)] = d; });
  return out;
}

double Graph::average_degree() const {
  if (n_ == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) / static_cast<double>(n_);
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  if (u < 0 || v < 0 || u >= n_ || v >= n_ || u == v) return false;
  if (!compressed_) {
    // Binary search in the shorter adjacency list.
    if (degree(u) > degree(v)) std::swap(u, v);
    auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }
  // Early-exit streaming scan of one (sorted) row. No degree-swap
  // heuristic here: comparing degrees would cost two extra superblock
  // seeks, more than the few entries of decode it could save.
  bool found = false;
  for_each_neighbor(u, [&](Vertex w) {
    if (w >= v) {
      found = (w == v);
      return false;
    }
    return true;
  });
  return found;
}

std::vector<Edge> Graph::edge_list() const {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(num_edges()));
  NeighborScratch scratch;
  RowStream rows(*this);
  for (Vertex u = 0; u < n_; ++u) {
    for (Vertex v : rows.next(scratch)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

bool Graph::operator==(const Graph& other) const {
  if (n_ != other.n_ || adj_size_ != other.adj_size_) return false;
  if (!compressed_ && !other.compressed_) {
    if (offsets_ == other.offsets_ && adj_ == other.adj_) return true;
    return std::equal(offsets_, offsets_ + n_ + 1, other.offsets_) &&
           std::equal(adj_, adj_ + adj_size_, other.adj_);
  }
  if (compressed_ && other.compressed_) {
    // The codec is canonical (one byte stream per adjacency structure), so
    // payload equality IS structural equality.
    return cpayload_bytes_ == other.cpayload_bytes_ &&
           (cpayload_ == other.cpayload_ ||
            std::equal(cpayload_, cpayload_ + cpayload_bytes_, other.cpayload_));
  }
  // Mixed storage: stream both sides row by row.
  NeighborScratch sa, sb;
  RowStream ra(*this), rb(other);
  for (Vertex u = 0; u < n_; ++u) {
    const auto a = ra.next(sa);
    const auto b = rb.next(sb);
    if (a.size() != b.size() || !std::equal(a.begin(), a.end(), b.begin()))
      return false;
  }
  return true;
}

std::string Graph::storage_mode() const {
  if (compressed_) return mapped_ ? "compressed+mmap" : "compressed";
  return mapped_ ? "mmap" : "owned";
}

std::string Graph::summary() const {
  std::ostringstream oss;
  oss << "Graph(n=" << n_ << ", m=" << num_edges() << ", maxdeg=" << max_degree()
      << ")";
  return oss.str();
}

}  // namespace ssmis
