#include "graph/shard_loader.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <utility>

#include "graph/adjacency_build.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::graph {
namespace {

/// Resolved (u, v) pairs moved between memory and the spill at a time.
constexpr std::size_t kSpillBlockPairs = std::size_t{1} << 16;

void read_spill(int fd, void* dst, std::size_t bytes, off_t offset) {
  auto* p = static_cast<char*>(dst);
  while (bytes > 0) {
    const ssize_t got = ::pread(fd, p, bytes, offset);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      throw util::IoError("shard loader: cannot read back the spill file");
    }
    p += got;
    bytes -= static_cast<std::size_t>(got);
    offset += got;
  }
}

/// Calls on_pair(u, v) for each of the `num_pairs` spilled pairs, in scan
/// order. pread through a local buffer: no shared file position, so
/// concurrent callers do not interfere.
template <typename OnPair>
void for_each_spilled_pair(std::FILE* spill, std::size_t num_pairs,
                           std::size_t num_nodes, OnPair&& on_pair) {
  const int fd = fileno(spill);
  std::vector<std::uint32_t> block(2 * std::min(num_pairs, kSpillBlockPairs));
  for (std::size_t done = 0; done < num_pairs;) {
    const std::size_t pairs = std::min(num_pairs - done, kSpillBlockPairs);
    read_spill(fd, block.data(), pairs * 2 * sizeof(std::uint32_t),
               static_cast<off_t>(done * 2 * sizeof(std::uint32_t)));
    for (std::size_t k = 0; k < pairs; ++k) {
      const std::uint32_t u = block[2 * k];
      const std::uint32_t v = block[2 * k + 1];
      // The ids index per-source arrays; never trust bytes from disk.
      if (u >= num_nodes || v >= num_nodes) {
        throw util::IoError("shard loader: spill file is corrupt");
      }
      on_pair(u, v);
    }
    done += pairs;
  }
}

}  // namespace

EdgeListShardReader::EdgeListShardReader(const std::string& path,
                                         IdPolicy policy,
                                         std::uint64_t max_preserved_id)
    : policy_(policy) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadShard);
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError("shard loader: cannot open edge list file: " + path);
  }
  // Unlinked on creation: the spill disappears with the reader, or with
  // the process.
  spill_.reset(std::tmpfile());
  if (!spill_) {
    throw util::IoError("shard loader: cannot create a spill file");
  }
  std::vector<std::uint32_t> block;
  block.reserve(2 * kSpillBlockPairs);
  const auto write_block = [&] {
    if (std::fwrite(block.data(), sizeof(std::uint32_t), block.size(),
                    spill_.get()) != block.size()) {
      throw util::IoError("shard loader: cannot write the spill file");
    }
    block.clear();
  };
  num_nodes_ = scan_edge_list_resolved(
      in, policy_, max_preserved_id, [&](std::uint32_t u, std::uint32_t v) {
        block.push_back(u);
        block.push_back(v);
        ++edge_records_;
        if (block.size() == 2 * kSpillBlockPairs) write_block();
      });
  write_block();
  if (std::fflush(spill_.get()) != 0) {
    throw util::IoError("shard loader: cannot write the spill file");
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

  // One (source, row) arc per direction of each edge that lands in the
  // shard: the column block A[:, row_begin:row_end) by source.
  detail::AdjacencyRows rows =
      detail::build_adjacency(num_nodes_, [&](const auto& emit) {
        for_each_spilled_pair(
            spill_.get(), edge_records_, num_nodes_,
            [&](std::uint32_t u, std::uint32_t v) {
              if (u >= row_begin && u < row_end) emit(v, u);
              if (v >= row_begin && v < row_end) emit(u, v);
            });
      });
  ShardBlock shard;
  shard.row_begin = row_begin;
  shard.row_end = row_end;
  shard.offsets = std::move(rows.offsets);
  shard.targets = std::move(rows.targets);
  return shard;
}

}  // namespace sgp::graph
