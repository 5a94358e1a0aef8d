// Out-of-core row-shard access to an on-disk edge list.
//
// The publishing mechanism is row-separable (core/sharded_publish.hpp), so a
// publisher never needs the whole graph in memory — only the adjacency
// entries of the shard it is currently emitting. EdgeListShardReader
// provides exactly that:
// an initial streaming pass establishes the node count (and, under
// IdPolicy::kCompact, the first-appearance id remap — the one O(n) structure
// this loader keeps, a few dozen bytes per node versus the O(n·m) doubles of
// a materialized release), after which load_shard() re-streams the file and
// keeps only the edges incident to the requested row range.
//
// Semantics match the in-memory path bit for bit: both run on
// scan_edge_list (graph/io.hpp), so parsing, header handling, id caps and
// self-loop dropping are shared code, and each source's list of shard rows
// is sorted and deduplicated exactly as Graph::from_edges would produce it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/io.hpp"
#include "linalg/sparse_matrix.hpp"

namespace sgp::graph {

/// Shard [row_begin, row_end) in source-major form — the column block
/// A[:, row_begin:row_end) of the symmetric adjacency matrix, unweighted:
/// targets [offsets[j], offsets[j+1]) equal Graph::neighbors(j) ∩
/// [row_begin, row_end) for every node j — the rows the publish kernel
/// (core::publish_rows) scatters P_j into.
struct ShardBlock {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<std::size_t> offsets;    ///< size num_nodes + 1
  std::vector<std::uint32_t> targets;  ///< concatenated per-source rows

  [[nodiscard]] std::size_t num_rows() const { return row_end - row_begin; }

  /// The same arrays as the kernel's block view.
  [[nodiscard]] linalg::SourceMajorBlock block() const {
    return {offsets, targets, {}};
  }
};

/// Streams row shards of an edge-list file without materializing the graph.
/// Construction performs one full scan (node count, edge count, id remap);
/// each load_shard() performs another. Working memory per load_shard() is
/// O(|E_shard| + n) plus the persistent remap.
class EdgeListShardReader {
 public:
  /// Opens and scans `path`. Throws util::IoError if unreadable and
  /// util::ParseError on malformed content (same grammar as read_edge_list).
  explicit EdgeListShardReader(
      std::string path, IdPolicy policy = IdPolicy::kCompact,
      std::uint64_t max_preserved_id = kDefaultMaxPreservedNodeId);

  /// Node count of the full graph — equals read_edge_list(...).num_nodes().
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Edge records accepted by the scan (before undirected deduplication).
  [[nodiscard]] std::size_t edge_records() const { return edge_records_; }

  /// Loads rows [row_begin, row_end) in source-major form. Requires
  /// row_begin <= row_end <= num_nodes(). Re-reads the file; throws
  /// util::IoError if it changed shape since construction (defensive — the
  /// scan counts and node ids must still match).
  [[nodiscard]] ShardBlock load_shard(std::size_t row_begin,
                                      std::size_t row_end) const;

 private:
  std::string path_;
  IdPolicy policy_;
  std::uint64_t max_preserved_id_;
  std::size_t num_nodes_ = 0;
  std::size_t edge_records_ = 0;
  /// kCompact only: raw file id -> dense node index, first-appearance order.
  std::unordered_map<std::uint64_t, std::uint32_t> remap_;
};

}  // namespace sgp::graph
