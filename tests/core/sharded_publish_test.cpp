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
    // Parameterized cases are named "<case>/<index>": keep the '/' out of
    // the file name.
    std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    const std::string stem = testing::TempDir() + "/sgp_sharded_" + name;
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

  /// Runs with shard_rows 16 under a fault that kills the checkpoint
  /// append after `after` records: shards [0, after) are vouched for and
  /// shard `after`'s payload is on disk without its record.
  void crash_at_checkpoint(std::uint64_t after,
                           std::size_t shard_rows = 16) const {
    util::arm_fault("io.shard.checkpoint", {.after = after, .max_fires = 1});
    EXPECT_THROW(run(shard_rows, /*threads=*/1), util::IoError);
    util::disarm_all_faults();
    ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));
  }

  std::vector<std::string> ckpt_lines() const {
    std::ifstream in(out_path_ + ".ckpt", std::ios::binary);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }

  void write_ckpt(const std::string& bytes) const {
    std::ofstream out(out_path_ + ".ckpt", std::ios::binary | std::ios::trunc);
    out << bytes;
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

// σ and Δ are part of the job record, so a checkpoint written under another
// calibration of the same (ε, δ) must restart, not resume.
TEST_F(ShardedPublishTest, CheckpointFromOtherCalibrationRestarts) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.analytic_calibration = false;
  opt.publish.delta_split = 0.3;
  opt.shard_rows = 16;
  ASSERT_NE(calibrate(opt.publish).sigma, calibrate(publish_options()).sigma);
  util::arm_fault("io.shard.checkpoint", {.after = 3, .max_fires = 1});
  EXPECT_THROW(publish_sharded(reader, opt, out_path_), util::IoError);
  util::disarm_all_faults();
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// The checkpoint is keyed on the job's config line, compared as a string:
// its second line is exactly ShardJob::config_line() of the release.
TEST_F(ShardedPublishTest, CheckpointCarriesTheJobConfigLine) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  util::arm_fault("io.shard.checkpoint", {.after = 1, .max_fires = 1});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();

  ShardJob job;
  job.publish = publish_options();
  job.publish.kernel = random::resolve_normal_kernel(job.publish.kernel);
  job.calibration = calibrate(publish_options());
  job.plan = plan_shards(reader.num_nodes(), 16);
  job.edge_records = reader.edge_records();
  job.id_policy = graph::IdPolicy::kPreserve;

  std::ifstream in(out_path_ + ".ckpt", std::ios::binary);
  std::string magic;
  std::string config;
  ASSERT_TRUE(std::getline(in, magic) && std::getline(in, config));
  EXPECT_EQ(magic, "sgp-shard-checkpoint v1");
  EXPECT_EQ(config, job.config_line());
  EXPECT_EQ(config.rfind("config nodes " +
                             std::to_string(reader.num_nodes()) + " edges ",
                         0),
            0u)
      << config;
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

// A bit flip in one record (its CRC no longer matches) stops the trusted
// prefix there: the shards before it resume, the rest are recomputed.
TEST_F(ShardedPublishTest, CorruptCheckpointRecordResumesOnlyUpToIt) {
  crash_at_checkpoint(/*after=*/3);
  std::vector<std::string> lines = ckpt_lines();
  ASSERT_EQ(lines.size(), 5u);  // magic, config, shards 0..2
  std::string& shard1 = lines[3];
  shard1.back() = shard1.back() == '0' ? '1' : '0';
  std::string bytes;
  for (const std::string& line : lines) bytes += line + '\n';
  write_ckpt(bytes);

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 1u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// A record torn mid-line (a crash inside the append) is not trusted; the
// complete records before it are.
TEST_F(ShardedPublishTest, TornCheckpointTailResumesTruthfulPrefix) {
  crash_at_checkpoint(/*after=*/3);
  const auto size = std::filesystem::file_size(out_path_ + ".ckpt");
  std::filesystem::resize_file(out_path_ + ".ckpt", size - 6);

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, CheckpointWithForeignMagicRestarts) {
  crash_at_checkpoint(/*after=*/3);
  std::vector<std::string> lines = ckpt_lines();
  ASSERT_GE(lines.size(), 2u);
  lines[0] = "sgp-shard-checkpoint v0";
  std::string bytes;
  for (const std::string& line : lines) bytes += line + '\n';
  write_ckpt(bytes);

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// Shard boundaries are part of the job: the byte offsets a checkpoint
// vouches for under one shard height mean nothing under another.
TEST_F(ShardedPublishTest, CheckpointFromOtherShardHeightRestarts) {
  crash_at_checkpoint(/*after=*/3, /*shard_rows=*/16);
  const ShardedPublishResult result = run(/*shard_rows=*/8, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, CheckpointFromOtherDimensionRestarts) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.projection_dim = 8;
  opt.shard_rows = 16;
  util::arm_fault("io.shard.checkpoint", {.after = 3, .max_fires = 1});
  EXPECT_THROW(publish_sharded(reader, opt, out_path_), util::IoError);
  util::disarm_all_faults();
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, CheckpointFromOtherProjectionKindRestarts) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.projection = ProjectionKind::kAchlioptas;
  opt.shard_rows = 16;
  util::arm_fault("io.shard.checkpoint", {.after = 3, .max_fires = 1});
  EXPECT_THROW(publish_sharded(reader, opt, out_path_), util::IoError);
  util::disarm_all_faults();
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// The job records the scanned file's node and edge-record counts, so a
// checkpoint left by a release of another edge list restarts.
TEST_F(ShardedPublishTest, CheckpointFromOtherEdgeFileRestarts) {
  crash_at_checkpoint(/*after=*/3);
  const std::size_t old_records =
      graph::EdgeListShardReader(edges_path_, graph::IdPolicy::kPreserve)
          .edge_records();
  random::Rng rng(32);
  graph::write_edge_list_file(graph::erdos_renyi(90, 0.12, rng), edges_path_);
  ASSERT_NE(
      graph::EdgeListShardReader(edges_path_, graph::IdPolicy::kPreserve)
          .edge_records(),
      old_records);

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// The thread count is not part of the job: rows are pure functions of
// (seed, counter), so a run crashed on one thread resumes on three.
TEST_F(ShardedPublishTest, ResumeUnderOtherThreadCountKeepsBytes) {
  crash_at_checkpoint(/*after=*/2);
  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/3);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// Bytes past the last vouched-for shard — here junk appended after the
// crash — are cut off before the resumed shards are appended.
TEST_F(ShardedPublishTest, TrailingBytesPastTheCheckpointAreCutOff) {
  crash_at_checkpoint(/*after=*/2);
  {
    std::ofstream out(out_path_, std::ios::binary | std::ios::app);
    out << std::string(1000, '\x5a');
  }
  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, MissingReleaseFileInvalidatesCheckpoint) {
  crash_at_checkpoint(/*after=*/2);
  std::filesystem::remove(out_path_);
  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

// Each rerun resumes from where the previous crash left the log, so a
// release killed twice still completes to the reference bytes.
TEST_F(ShardedPublishTest, RepeatedCrashesResumeStepByStep) {
  crash_at_checkpoint(/*after=*/2);
  util::arm_fault("io.shard.checkpoint", {.after = 2, .max_fires = 1});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();
  EXPECT_EQ(ckpt_lines().size(), 2u + 4u);  // magic, config, shards 0..3

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 4u);
  EXPECT_EQ(out_bytes(), reference_bytes());
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));
}

// Shard loads are idempotent, so io_retry rides out transient read faults
// without changing a byte, and counts each retry.
TEST_F(ShardedPublishTest, ShardReadRetriesTransientFaults) {
  const bool metrics_were_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& retries = obs::counter(obs::names::kRetryAttempts);
  const std::uint64_t before = retries.value();
  util::arm_fault("io.shard.read", {.after = 1, .max_fires = 2});

  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.shard_rows = 16;
  opt.io_retry = {.max_attempts = 3, .initial_backoff_seconds = 0.0};
  const ShardedPublishResult result = publish_sharded(reader, opt, out_path_);
  util::disarm_all_faults();
  EXPECT_EQ(result.shards_resumed, 0u);
  EXPECT_EQ(retries.value() - before, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
  obs::set_metrics_enabled(metrics_were_enabled);
}

// Under the default single-attempt policy a read fault fails the release,
// and the shards already checkpointed resume on the next run.
TEST_F(ShardedPublishTest, ShardReadFaultFailsFastThenResumes) {
  util::arm_fault("io.shard.read", {.after = 2, .max_fires = 1});
  EXPECT_THROW(run(/*shard_rows=*/16, /*threads=*/1), util::IoError);
  util::disarm_all_faults();

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/1);
  EXPECT_EQ(result.shards_resumed, 2u);
  EXPECT_EQ(out_bytes(), reference_bytes());
}

TEST_F(ShardedPublishTest, RejectsBadDimensions) {
  graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
  ShardedPublishOptions opt;
  opt.publish = publish_options();
  opt.publish.projection_dim = graph_.num_nodes() + 1;
  EXPECT_THROW(publish_sharded(reader, opt, out_path_),
               util::PreconditionError);
}

// A crash at every shard boundary: the checkpoint append for shard k is
// killed, so exactly k shards resume and the release still equals the
// reference bytes.
class ShardBoundaryCrashTest
    : public ShardedPublishTest,
      public testing::WithParamInterface<std::uint64_t> {};

TEST_P(ShardBoundaryCrashTest, ResumesExactlyTheVouchedShards) {
  const std::uint64_t k = GetParam();
  ASSERT_LT(k, plan_shards(graph_.num_nodes(), 16).num_shards());
  crash_at_checkpoint(/*after=*/k);
  EXPECT_EQ(ckpt_lines().size(), 2u + k);

  const ShardedPublishResult result = run(/*shard_rows=*/16, /*threads=*/2);
  EXPECT_EQ(result.shards_resumed, k);
  EXPECT_EQ(out_bytes(), reference_bytes());
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));
}

INSTANTIATE_TEST_SUITE_P(EveryShard, ShardBoundaryCrashTest,
                         testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace sgp::core
