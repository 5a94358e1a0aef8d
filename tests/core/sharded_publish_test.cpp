// publish_sharded: the differential layer. The out-of-core path must be
// byte-identical to the per-edge reference (tests/reference_publish.hpp) for
// every shard size and thread count, resume from a checkpoint after a
// mid-shard crash without changing a byte, and refuse stale checkpoints. The
// large shard×thread matrix lives in tests/slow/differential_matrix_test.cpp;
// this file keeps a representative fast slice in the default suite.
#include "core/sharded_publish.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialization.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "random/kernel_variant.hpp"
#include "random/rng.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "../reference_publish.hpp"

namespace sgp::core {
namespace {

class ShardedPublishTest : public testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        testing::TempDir() + "/sgp_sharded_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    edges_path_ = stem + ".edges";
    out_path_ = stem + ".bin";
    random::Rng rng(31);
    graph_ = graph::erdos_renyi(90, 0.08, rng);
    graph::write_edge_list_file(graph_, edges_path_);
  }
  void TearDown() override {
    util::disarm_all_faults();
    std::remove(edges_path_.c_str());
    std::remove(out_path_.c_str());
    std::remove((out_path_ + ".ckpt").c_str());
  }

  RandomProjectionPublisher::Options publish_options() const {
    RandomProjectionPublisher::Options opt;
    opt.projection_dim = 16;
    opt.seed = 1234;
    return opt;
  }

  /// The in-memory reference bytes for the same file and options.
  std::string reference_bytes() const {
    const graph::Graph g =
        graph::read_edge_list_file(edges_path_, graph::IdPolicy::kPreserve);
    std::ostringstream out(std::ios::binary);
    test::reference_publish(g, publish_options(), out);
    return out.str();
  }

  std::string out_bytes() const {
    std::ifstream in(out_path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  ShardedPublishResult run(std::size_t shard_rows, std::size_t threads,
                           bool resume = true) const {
    graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
    ShardedPublishOptions opt;
    opt.publish = publish_options();
    opt.shard_rows = shard_rows;
    opt.threads = threads;
    opt.resume = resume;
    return publish_sharded(reader, opt, out_path_);
  }

  graph::Graph graph_;
  std::string edges_path_;
  std::string out_path_;
};

TEST_F(ShardedPublishTest, ByteIdenticalAcrossShardSizesAndThreads) {
  const std::string reference = reference_bytes();
  const std::size_t n = graph_.num_nodes();
  for (const std::size_t shard_rows : {std::size_t{1}, std::size_t{7}, n}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      const ShardedPublishResult result = run(shard_rows, threads);
      EXPECT_EQ(result.num_nodes, n);
      EXPECT_EQ(result.shards_resumed, 0u);
      ASSERT_EQ(out_bytes(), reference)
          << "shard_rows=" << shard_rows << " threads=" << threads;
    }
  }
}

TEST_F(ShardedPublishTest, SingleShardDefaultMatchesReference) {
  const ShardedPublishResult result = run(/*shard_rows=*/0, /*threads=*/1);
  EXPECT_EQ(result.shards_total, 1u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, OutputLoadsAsPublishedGraph) {
  run(/*shard_rows=*/16, /*threads=*/2);
  const PublishedGraph pub = load_published_file(out_path_);
  EXPECT_EQ(pub.num_nodes, graph_.num_nodes());
  EXPECT_EQ(pub.projection_dim, 16u);
  EXPECT_EQ(pub.projection_rng, ProjectionRngKind::kCounterV1);
}

TEST_F(ShardedPublishTest, CheckpointIsDeletedOnSuccess) {
  run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));
}

TEST_F(ShardedPublishTest, ResumesAfterCrashDuringShardWrite) {
  util::arm_fault("io.shard.write", {.after = 2});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();
  // Two shards were written and checkpointed before the crash.
  EXPECT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));
}

TEST_F(ShardedPublishTest, ResumesAfterCrashBetweenPayloadAndCheckpoint) {
  // The shard's bytes hit the release file but the checkpoint record does
  // not: resume must distrust the unlogged tail and redo exactly one shard.
  util::arm_fault("io.shard.checkpoint", {.after = 2});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, StaleCheckpointFromOtherSeedIsIgnored) {
  util::arm_fault("io.shard.write", {.after = 2});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();

  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.seed = 999;  // different release — checkpoint must not apply
  opt.shard_rows = 16;
  const ShardedPublishResult result = publish_sharded(reader, opt, out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);

  const graph::Graph g =
      graph::read_edge_list_file(edges_path_, graph::IdPolicy::kPreserve);
  std::ostringstream expected(std::ios::binary);
  test::reference_publish(g, opt.publish, expected);
  EXPECT_EQ(out_bytes(), expected.str());
}

// An achlioptas release keeps the counter-v1 tag under either normal
// mapping, but its noise follows the mapping: a checkpoint written under
// the polynomial mapping must restart, not resume, a scalar run.
TEST_F(ShardedPublishTest, CheckpointFromOtherNormalMappingRestarts) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.projection = ProjectionKind::kAchlioptas;
  opt.publish.kernel = random::KernelVariant::kGeneric;
  opt.shard_rows = 16;
  util::arm_fault("io.shard.checkpoint", {.after = 3, .max_fires = 1});
  EXPECT_THROW(publish_sharded(reader, opt, out_path_), util::IoError);
  util::disarm_all_faults();
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  opt.publish.kernel = random::KernelVariant::kScalar;
  const ShardedPublishResult result = publish_sharded(reader, opt, out_path_);
  EXPECT_EQ(result.shards_resumed, 0u);
  const graph::Graph g =
      graph::read_edge_list_file(edges_path_, graph::IdPolicy::kPreserve);
  std::ostringstream expected(std::ios::binary);
  test::reference_publish(g, opt.publish, expected);
  EXPECT_EQ(out_bytes(), expected.str());
}

// The id policy decides which node each row is, so a checkpoint written
// while reading the file under kCompact must restart, not resume, a
// kPreserve run over the same file (same node count here).
TEST_F(ShardedPublishTest, CheckpointFromOtherIdPolicyRestarts) {
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.shard_rows = 16;
  {
    graph::EdgeListShardReader compact(edges_path_, graph::IdPolicy::kCompact);
    ASSERT_EQ(compact.num_nodes(), graph_.num_nodes());
    util::arm_fault("io.shard.checkpoint", {.after = 3, .max_fires = 1});
    EXPECT_THROW(publish_sharded(compact, opt, out_path_), util::IoError);
    util::disarm_all_faults();
  }
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, ResumeDisabledStartsFresh) {
  util::arm_fault("io.shard.write", {.after = 2});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();

  const ShardedPublishResult result =
      run(/*shard_rows=*/16, /*threads=*/1, /*resume=*/false);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, TruncatedReleaseFileInvalidatesCheckpoint) {
  util::arm_fault("io.shard.write", {.after = 2});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();
  // The release file lost bytes the checkpoint vouches for (e.g. replaced
  // by an operator): the checkpoint must be discarded, not trusted.
  std::filesystem::resize_file(out_path_, 10);

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, CompactPolicyMatchesCompactReference) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kCompact);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.shard_rows = 7;
  opt.threads = 2;
  publish_sharded(reader, opt, out_path_);

  const graph::Graph g =
      graph::read_edge_list_file(edges_path_, graph::IdPolicy::kCompact);
  std::ostringstream expected(std::ios::binary);
  test::reference_publish(g, opt.publish, expected);
  EXPECT_EQ(out_bytes(), expected.str());
}

// The kernel generates P_j once per shard that j reaches, and never for a
// source with no row in the shard: publish.p_rows_generated must equal
// Σ_shards |{j : N(j) ∩ shard ≠ ∅}|, computed here from the Graph — on a
// graph whose isolated nodes sit between connected ones, so skipped
// sources fall inside tiles, not only at the end.
TEST_F(ShardedPublishTest, PRowsGeneratedCountsSourcesReachingEachShard) {
  random::Rng rng(41);
  const graph::Graph ba = graph::barabasi_albert(60, 2, rng);
  // Spread ids so every 7th node of the final graph has no edges.
  const auto spread = [](std::uint32_t u) { return u + u / 6 + 1; };
  std::vector<graph::Edge> edges;
  for (const graph::Edge& e : ba.edges()) {
    edges.push_back({spread(e.u), spread(e.v)});
  }
  const graph::Graph g = graph::Graph::from_edges(spread(59) + 3, edges);
  graph::write_edge_list_file(g, edges_path_);
  const std::size_t n = g.num_nodes();
  std::size_t isolated = 0;
  for (std::size_t j = 0; j < n; ++j) isolated += g.degree(j) == 0;
  ASSERT_GT(isolated, 0u);

  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& p_rows = obs::counter(obs::names::kPublishPRowsGenerated);
  for (const std::size_t shard_rows : {std::size_t{1}, std::size_t{7}, n}) {
    std::uint64_t expected = 0;
    for (std::size_t r0 = 0; r0 < n; r0 += shard_rows) {
      const std::size_t r1 = std::min(n, r0 + shard_rows);
      for (std::size_t j = 0; j < n; ++j) {
        const auto nbrs = g.neighbors(j);
        expected += std::any_of(nbrs.begin(), nbrs.end(),
                                [&](std::uint32_t i) {
                                  return i >= r0 && i < r1;
                                });
      }
    }
    const std::uint64_t before = p_rows.value();
    run(shard_rows, /*threads=*/2);
    EXPECT_EQ(p_rows.value() - before, expected)
        << "shard_rows=" << shard_rows;
    if (shard_rows == n) {
      EXPECT_EQ(expected, n - isolated);
    }
  }
  obs::set_metrics_enabled(metrics_were_enabled);
}

// The text is parsed once per release, whatever the shard count: the
// reader's construction scan is the only pass that reads edge records.
TEST_F(ShardedPublishTest, ParsesTheEdgeListOncePerRelease) {
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
  const std::uint64_t before = edges_read.value();
  const graph::EdgeListShardReader reader(edges_path_,
                                          graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.shard_rows = (reader.num_nodes() + 3) / 4;
  opt.resume = false;
  const ShardedPublishResult result = publish_sharded(reader, opt, out_path_);
  EXPECT_EQ(result.shards_total, 4u);
  EXPECT_EQ(edges_read.value() - before, reader.edge_records());
  EXPECT_EQ(out_bytes(), reference_bytes());
  obs::set_metrics_enabled(metrics_were_enabled);
}

TEST_F(ShardedPublishTest, RejectsBadDimensions) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.projection_dim = graph_.num_nodes() + 1;
  EXPECT_THROW(publish_sharded(reader, opt, out_path_),
               util::PreconditionError);
}

}  // namespace
}  // namespace sgp::core
