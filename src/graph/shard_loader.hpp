// Out-of-core row-shard access to an on-disk edge list.
//
// The publishing mechanism is row-separable (core/sharded_publish.hpp), so a
// publisher never needs the whole graph in memory — only the adjacency
// entries of the shard it is currently emitting. EdgeListShardReader
// provides exactly that, parsing the text file once:
// the constructor's single scan establishes the node count, resolves every
// edge record to dense node ids (under IdPolicy::kCompact through the
// first-appearance remap, which is freed when the scan ends) and spills the
// resolved (u, v) pairs, 8 bytes per edge record, to an anonymous temporary
// file on disk. load_shard() never re-reads the text: it reads the spill
// twice through a fixed buffer — once to count, once to fill — and keeps
// only the entries that land in the requested row range.
//
// Semantics match the in-memory path bit for bit: both run on
// scan_edge_list (graph/io.hpp), so parsing, header handling, id caps and
// self-loop dropping are shared code, and both build their rows with the
// same counting-sort routine (graph/adjacency_build.hpp), so each source's
// list of shard rows is sorted and deduplicated exactly as
// Graph::from_edges produces it. The shards describe the file as it was
// when the reader was constructed, whatever happens to it afterwards.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
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
/// Construction performs the only scan of the text (node count, edge count,
/// the resolved-pair spill); each load_shard() reads the spill. Working
/// memory per load_shard() is the shard's offsets and targets,
/// O(|E_shard| + n), plus a fixed read buffer. Move-only (it owns the
/// spill).
class EdgeListShardReader {
 public:
  /// Opens and scans `path`. Throws util::IoError if unreadable or if the
  /// spill cannot be written, and util::ParseError on malformed content
  /// (same grammar as read_edge_list).
  explicit EdgeListShardReader(
      const std::string& path, IdPolicy policy = IdPolicy::kCompact,
      std::uint64_t max_preserved_id = kDefaultMaxPreservedNodeId);

  /// Node count of the full graph — equals read_edge_list(...).num_nodes().
  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }

  /// Edge records accepted by the scan (before undirected deduplication).
  [[nodiscard]] std::size_t edge_records() const { return edge_records_; }

  /// The id policy the constructor numbered nodes under.
  [[nodiscard]] IdPolicy policy() const { return policy_; }

  /// Loads rows [row_begin, row_end) in source-major form. Requires
  /// row_begin <= row_end <= num_nodes(). Reads only the spill, never the
  /// text file; safe to call from several threads at once. Throws
  /// util::IoError if the spill cannot be read back.
  [[nodiscard]] ShardBlock load_shard(std::size_t row_begin,
                                      std::size_t row_end) const;

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  IdPolicy policy_ = IdPolicy::kCompact;
  std::size_t num_nodes_ = 0;
  std::size_t edge_records_ = 0;
  /// Unlinked temporary file of edge_records_ resolved (u, v) uint32 pairs.
  std::unique_ptr<std::FILE, FileCloser> spill_;
};

}  // namespace sgp::graph
