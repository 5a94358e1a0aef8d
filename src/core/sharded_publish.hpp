// Out-of-core shard-parallel publication.
//
// The mechanism is row-separable: published row i is
//   Ỹ_i = Σ_{j∈N(i)} P_j + σ·N_i,
// and with counter-based generation (core/projection.hpp) both P rows and
// the noise are pure functions of (seed, counter) — no state flows between
// rows. Publication therefore decomposes into independent row shards: load
// a shard from the edge list (graph/shard_loader.hpp), compute its rows of Ỹ
// with the one publish kernel (publish_rows, core/publisher.hpp), append
// them to the release stream, repeat. Working memory is
// O(rows_per_shard·m + |E_shard| + n) instead of O(n·m), and the output is
// byte-identical to the in-memory release for every shard size and thread
// count (enforced by tests/core/sharded_publish_test.cpp and the slow
// differential matrix).
//
// Durability: after each shard the publisher appends a CRC-guarded record to
// a sidecar checkpoint log (`<out>.ckpt`). A crash mid-shard leaves the log
// one record short; on the next run with identical options the publisher
// truncates the release file back to the last complete shard boundary and
// resumes there, producing the same bytes as an uninterrupted run. The log
// is deleted once the release is complete.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/publisher.hpp"
#include "graph/shard_loader.hpp"
#include "util/check.hpp"
#include "util/retry.hpp"

namespace sgp::core {

/// Partition of the row range [0, num_rows) into consecutive half-open
/// shards of `shard_rows` rows (the last shard may be smaller).
struct ShardPlan {
  std::size_t num_rows = 0;
  std::size_t shard_rows = 1;

  [[nodiscard]] std::size_t num_shards() const {
    // 1 + (num_rows-1)/shard_rows is the overflow-free form of the ceil
    // division: the naive (num_rows + shard_rows - 1) wraps for
    // adversarially large shard_rows (e.g. the shard_rows == num_rows
    // single-shard plan when num_rows > SIZE_MAX/2).
    SGP_REQUIRE(shard_rows >= 1, "ShardPlan: shard_rows must be >= 1");
    return num_rows == 0 ? 0 : 1 + (num_rows - 1) / shard_rows;
  }

  /// Row range [begin, end) of shard `s`. Requires s < num_shards() —
  /// which also makes the s·shard_rows product overflow-free, since the
  /// begin of any valid shard is at most num_rows − 1.
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(
      std::size_t s) const {
    SGP_REQUIRE(s < num_shards(), "ShardPlan: shard index out of range");
    const std::size_t begin = s * shard_rows;
    return {begin, begin + std::min(num_rows - begin, shard_rows)};
  }
};

/// Builds a plan. `shard_rows == 0` means "one shard covering everything"
/// (and a plan over zero rows has zero shards either way).
[[nodiscard]] ShardPlan plan_shards(std::size_t num_rows,
                                    std::size_t shard_rows);

/// Derives a shard height from a memory budget: half the budget is reserved
/// for the shard's output tile (shard_rows·m·8 bytes), the other half
/// absorbs the shard's adjacency lists and per-thread scratch — so
///   shard_rows = max(1, (max_memory_mb·2^20 / 2) / (8·m)).
/// Documented in docs/scaling.md; the property tests pin the bound.
[[nodiscard]] std::size_t shard_rows_for_memory(std::size_t max_memory_mb,
                                                std::size_t projection_dim);

struct ShardedPublishOptions {
  /// Same knobs as the in-memory path — seed, m, budget, projection kind.
  RandomProjectionPublisher::Options publish;
  /// Rows per shard; 0 = single shard (still out-of-core loaded).
  std::size_t shard_rows = 0;
  /// Worker threads for the per-shard row loop; 0 = the global pool.
  std::size_t threads = 0;
  /// Consult `<out>.ckpt` and resume at the last complete shard when the
  /// checkpoint matches these options. Off = always start fresh.
  bool resume = true;
  /// Retry policy for the transiently-failing IO steps (shard loads — the
  /// `io.shard.read` fault point; re-loading is idempotent). The default
  /// max_attempts == 1 preserves fail-fast semantics; `sgp_publish
  /// --io-attempts` raises it.
  util::RetryPolicy io_retry{.max_attempts = 1};
};

struct ShardedPublishResult {
  std::size_t num_nodes = 0;
  std::size_t shards_total = 0;
  /// Shards skipped because a matching checkpoint proved them complete.
  std::size_t shards_resumed = 0;
};

/// Publishes the graph behind `reader` to `out_path` shard by shard.
/// The release file is byte-identical to save_published of the in-memory
/// publish of read_edge_list on the same file with the same options. Throws
/// util::PreconditionError on bad options and util::IoError on IO failure
/// (fault points: "io.shard.read", "io.shard.write", "io.shard.checkpoint").
ShardedPublishResult publish_sharded(const graph::EdgeListShardReader& reader,
                                     const ShardedPublishOptions& options,
                                     const std::string& out_path);

/// One publication's shard job: every value needed to compute any shard,
/// since row i is Ỹ_i = Σ_j A_ij·P_j + σ·N_i. Its CRC-framed config line
/// heads `<out>.ckpt`, so a checkpoint resumes only into the same job.
struct ShardJob {
  /// m, ε, δ, seed, projection, and `kernel` resolved. Only the kernel's
  /// normal mapping is recorded (kScalar and the polynomial kernels write
  /// the same bytes within each mapping). analytic_calibration and
  /// delta_split are not recorded; `calibration` is their result.
  RandomProjectionPublisher::Options publish;
  NoiseCalibration calibration;  ///< σ and Δ (core::calibrate)
  ShardPlan plan;                ///< plan.num_rows is the node count n
  std::size_t edge_records = 0;  ///< of the scanned file
  graph::IdPolicy id_policy = graph::IdPolicy::kCompact;

  [[nodiscard]] std::size_t num_nodes() const { return plan.num_rows; }

  /// `config nodes <n> edges <E> ids <compact|preserve> dim <m> shard_rows
  /// <S> seed <seed> epsilon <ε> delta <δ> sigma <σ> sensitivity <Δ>
  /// projection <kind> normals <scalar|polynomial> crc <crc32>`.
  [[nodiscard]] std::string config_line() const;
};

}  // namespace sgp::core
