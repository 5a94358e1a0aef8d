#include "graph/shard_loader.hpp"

#include <algorithm>
#include <fstream>
#include <utility>

#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::graph {
namespace {

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError("shard loader: cannot open edge list file: " + path);
  }
  return in;
}

}  // namespace

EdgeListShardReader::EdgeListShardReader(std::string path, IdPolicy policy,
                                         std::uint64_t max_preserved_id)
    : path_(std::move(path)),
      policy_(policy),
      max_preserved_id_(max_preserved_id) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  std::ifstream in = open_or_throw(path_);
  const EdgeScanStats stats = scan_edge_list(
      in, policy_, max_preserved_id_,
      [&](std::uint64_t u_raw, std::uint64_t v_raw) {
        if (policy_ == IdPolicy::kCompact) {
          remap_.emplace(u_raw, static_cast<std::uint32_t>(remap_.size()));
          remap_.emplace(v_raw, static_cast<std::uint32_t>(remap_.size()));
        }
      });
  edge_records_ = stats.edge_records;
  // Mirrors read_edge_list's node-count rule exactly.
  num_nodes_ = remap_.size();
  if (policy_ == IdPolicy::kPreserve) {
    num_nodes_ = stats.edge_records > 0
                     ? static_cast<std::size_t>(stats.max_raw_id) + 1
                     : 0;
    num_nodes_ = std::max(num_nodes_, stats.declared_nodes);
  }
  timer.attr("nodes", num_nodes_).attr("edges", edge_records_);
}

ShardBlock EdgeListShardReader::load_shard(std::size_t row_begin,
                                           std::size_t row_end) const {
  util::require(row_begin <= row_end && row_end <= num_nodes_,
                "shard loader: row range must lie within [0, num_nodes]");
  util::fault_point(util::fault_points::kIoShardRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  timer.attr("row_begin", row_begin).attr("row_end", row_end);

  // Every id was interned (kCompact) or bounded (kPreserve) by the
  // construction scan; anything else means the file changed under us. Ids
  // index the per-source offsets below, so this is also their bounds check.
  const auto resolve = [this](std::uint64_t raw) -> std::uint32_t {
    if (policy_ == IdPolicy::kPreserve && raw < num_nodes_) {
      return static_cast<std::uint32_t>(raw);
    }
    const auto it = remap_.find(raw);  // always a miss under kPreserve
    if (it == remap_.end()) {
      throw util::IoError("shard loader: " + path_ +
                          " changed since construction (unknown node id)");
    }
    return it->second;
  };

  // One (source, row) pair per direction that lands in the shard; sorting
  // the pair list then groups sources and orders each source's shard rows,
  // so the unique() below reproduces Graph::from_edges' merged duplicates.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> incident;
  std::ifstream in = open_or_throw(path_);
  const EdgeScanStats stats = scan_edge_list(
      in, policy_, max_preserved_id_,
      [&](std::uint64_t u_raw, std::uint64_t v_raw) {
        const std::uint32_t u = resolve(u_raw);
        const std::uint32_t v = resolve(v_raw);
        if (u >= row_begin && u < row_end) incident.emplace_back(v, u);
        if (v >= row_begin && v < row_end) incident.emplace_back(u, v);
      });
  if (stats.edge_records != edge_records_) {
    throw util::IoError("shard loader: " + path_ +
                        " changed since construction (edge count drifted)");
  }
  std::sort(incident.begin(), incident.end());
  incident.erase(std::unique(incident.begin(), incident.end()),
                 incident.end());

  ShardBlock shard;
  shard.row_begin = row_begin;
  shard.row_end = row_end;
  shard.offsets.assign(num_nodes_ + 1, 0);
  shard.targets.reserve(incident.size());
  for (const auto& [source, row] : incident) {
    ++shard.offsets[source + 1];
    shard.targets.push_back(row);
  }
  for (std::size_t j = 1; j < shard.offsets.size(); ++j) {
    shard.offsets[j] += shard.offsets[j - 1];
  }
  return shard;
}

}  // namespace sgp::graph
