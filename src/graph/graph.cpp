#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "graph/adjacency_build.hpp"
#include "util/check.hpp"

namespace sgp::graph {

Graph Graph::from_edges(std::size_t num_nodes, std::span<const Edge> edges) {
  for (const Edge& e : edges) {
    util::require(e.u < num_nodes && e.v < num_nodes,
                  "from_edges: endpoint out of range");
    util::require(e.u != e.v, "from_edges: self loops are not allowed");
  }
  // Both directions of every edge; duplicates in either orientation merge.
  detail::AdjacencyRows rows =
      detail::build_adjacency(num_nodes, [&](const auto& emit) {
        for (const Edge& e : edges) {
          emit(e.u, e.v);
          emit(e.v, e.u);
        }
      });
  Graph g;
  g.offsets_ = std::move(rows.offsets);
  g.adjacency_ = std::move(rows.targets);
  return g;
}

std::span<const std::uint32_t> Graph::neighbors(std::size_t u) const {
  util::require(u < num_nodes(), "neighbors: node out of range");
  return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
}

std::size_t Graph::degree(std::size_t u) const {
  util::require(u < num_nodes(), "degree: node out of range");
  return offsets_[u + 1] - offsets_[u];
}

bool Graph::has_edge(std::size_t u, std::size_t v) const {
  util::require(u < num_nodes() && v < num_nodes(),
                "has_edge: node out of range");
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(),
                            static_cast<std::uint32_t>(v));
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (std::size_t u = 0; u < num_nodes(); ++u) {
    for (std::uint32_t v : neighbors(u)) {
      if (u < v) out.push_back({static_cast<std::uint32_t>(u), v});
    }
  }
  return out;
}

linalg::CsrMatrix Graph::adjacency_matrix() const {
  // The neighbor lists already are A's rows: sorted, distinct, all 1.0.
  return linalg::CsrMatrix::from_csr(
      num_nodes(), offsets_.empty() ? std::vector<std::size_t>{0} : offsets_,
      adjacency_, std::vector<double>(adjacency_.size(), 1.0));
}

double Graph::average_degree() const {
  if (num_nodes() == 0) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(num_nodes());
}

ComponentResult connected_components(const Graph& g) {
  const std::size_t n = g.num_nodes();
  constexpr std::uint32_t kUnvisited = std::numeric_limits<std::uint32_t>::max();
  ComponentResult result;
  result.labels.assign(n, kUnvisited);
  std::vector<std::uint32_t> stack;
  for (std::size_t start = 0; start < n; ++start) {
    if (result.labels[start] != kUnvisited) continue;
    const auto label = static_cast<std::uint32_t>(result.count++);
    stack.push_back(static_cast<std::uint32_t>(start));
    result.labels[start] = label;
    while (!stack.empty()) {
      const std::uint32_t u = stack.back();
      stack.pop_back();
      for (std::uint32_t v : g.neighbors(u)) {
        if (result.labels[v] == kUnvisited) {
          result.labels[v] = label;
          stack.push_back(v);
        }
      }
    }
  }
  return result;
}

std::vector<std::size_t> bfs_distances(const Graph& g, std::size_t source) {
  util::require(source < g.num_nodes(), "bfs: source out of range");
  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.num_nodes(), kInf);
  std::queue<std::uint32_t> frontier;
  dist[source] = 0;
  frontier.push(static_cast<std::uint32_t>(source));
  while (!frontier.empty()) {
    const std::uint32_t u = frontier.front();
    frontier.pop();
    for (std::uint32_t v : g.neighbors(u)) {
      if (dist[v] == kInf) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

}  // namespace sgp::graph
