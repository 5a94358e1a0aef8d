// EdgeListShardReader: shards must agree with the in-memory reader on the
// same file — same node count, and every node's source-major list equal to
// its neighbor list restricted to the shard — under both id policies,
// including the messy inputs read_edge_list tolerates (comments, duplicates,
// self loops, both orientations).
#include "graph/shard_loader.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"

namespace sgp::graph {
namespace {

class ShardLoaderTest : public testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/sgp_shard_loader_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".edges";
  }
  void TearDown() override {
    util::disarm_all_faults();
    std::remove(path_.c_str());
  }

  void write(const std::string& content) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// Every node's source-major list must equal its in-memory neighbor list
  /// restricted to the shard's rows.
  static void expect_shards_match(const EdgeListShardReader& reader,
                                  const Graph& g, std::size_t shard_rows) {
    ASSERT_EQ(reader.num_nodes(), g.num_nodes());
    for (std::size_t r0 = 0; r0 < g.num_nodes(); r0 += shard_rows) {
      const std::size_t r1 = std::min(g.num_nodes(), r0 + shard_rows);
      const ShardBlock shard = reader.load_shard(r0, r1);
      EXPECT_EQ(shard.num_rows(), r1 - r0);
      ASSERT_EQ(shard.offsets.size(), g.num_nodes() + 1);
      for (std::size_t j = 0; j < g.num_nodes(); ++j) {
        const std::uint32_t* targets = shard.targets.data();
        const std::vector<std::uint32_t> got(targets + shard.offsets[j],
                                             targets + shard.offsets[j + 1]);
        std::vector<std::uint32_t> want;
        for (const std::uint32_t i : g.neighbors(j)) {
          if (i >= r0 && i < r1) want.push_back(i);
        }
        ASSERT_EQ(got, want)
            << "source " << j << " shard [" << r0 << ", " << r1 << ")";
      }
    }
  }

  void expect_shards_match(const Graph& g, IdPolicy policy,
                           std::size_t shard_rows) const {
    expect_shards_match(EdgeListShardReader(path_, policy), g, shard_rows);
  }

  std::string path_;
};

TEST_F(ShardLoaderTest, MessyInputMatchesReadEdgeListUnderCompact) {
  // Duplicates (both orientations), a self loop, comments, sparse ids.
  write("# comment\n5 9\n9 5\n5 12\n3 3\n12 9\n\n9 40\n");
  std::ifstream in(path_);
  const Graph g = read_edge_list(in, IdPolicy::kCompact);
  for (const std::size_t shard_rows : {1, 2, 100}) {
    expect_shards_match(g, IdPolicy::kCompact, shard_rows);
  }
}

TEST_F(ShardLoaderTest, PreservePolicyKeepsIdsAndHeaderNodes) {
  write("# sgp edge list: 9 nodes, 2 edges\n0 4\n4 6\n");
  std::ifstream in(path_);
  const Graph g = read_edge_list(in, IdPolicy::kPreserve);
  ASSERT_EQ(g.num_nodes(), 9u);  // header wins over max id + 1
  for (const std::size_t shard_rows : {1, 3, 9, 50}) {
    expect_shards_match(g, IdPolicy::kPreserve, shard_rows);
  }
}

TEST_F(ShardLoaderTest, GeneratedGraphRoundTripsThroughShards) {
  random::Rng rng(7);
  const Graph g = erdos_renyi(64, 0.1, rng);
  write_edge_list_file(g, path_);
  for (const std::size_t shard_rows : {1, 7, 64}) {
    expect_shards_match(g, IdPolicy::kPreserve, shard_rows);
  }
}

TEST_F(ShardLoaderTest, EmptyFileHasNoNodes) {
  write("# nothing but comments\n");
  const EdgeListShardReader reader(path_);
  EXPECT_EQ(reader.num_nodes(), 0u);
  EXPECT_EQ(reader.edge_records(), 0u);
  const ShardBlock shard = reader.load_shard(0, 0);
  EXPECT_EQ(shard.num_rows(), 0u);
}

TEST_F(ShardLoaderTest, RejectsOutOfRangeShard) {
  write("0 1\n");
  const EdgeListShardReader reader(path_);
  EXPECT_THROW((void)reader.load_shard(0, 3), util::PreconditionError);
  EXPECT_THROW((void)reader.load_shard(2, 1), util::PreconditionError);
}

TEST_F(ShardLoaderTest, MissingFileThrowsIoError) {
  EXPECT_THROW((void)EdgeListShardReader(path_ + ".nope"), util::IoError);
}

// load_shard reads the reader's own spill, never the text again: shards
// describe the file as construction scanned it, whatever happens to it
// afterwards — it may grow, gain ids the scan never saw, or disappear.
TEST_F(ShardLoaderTest, ShardsAreASnapshotOfTheScannedFile) {
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    write("# sgp edge list: 6 nodes, 3 edges\n0 1\n1 2\n4 2\n2 1\n");
    std::ifstream in(path_);
    const Graph g = read_edge_list(in, policy);
    const EdgeListShardReader reader(path_, policy);
    write("0 1\n1 9\n2 3\n3 4\n4 5\n77 78\n");
    ASSERT_EQ(reader.edge_records(), 4u);
    for (const bool removed : {false, true}) {
      if (removed) std::remove(path_.c_str());
      for (const std::size_t shard_rows : {std::size_t{1}, std::size_t{2},
                                           g.num_nodes()}) {
        expect_shards_match(reader, g, shard_rows);
      }
    }
  }
}

// load_shard is const and reads the spill with pread, so concurrent loads
// of one reader must each see exactly what a lone load sees.
TEST_F(ShardLoaderTest, ConcurrentLoadsMatchSequentialOnes) {
  random::Rng rng(11);
  write_edge_list_file(barabasi_albert(400, 3, rng), path_);
  const EdgeListShardReader reader(path_, IdPolicy::kPreserve);
  constexpr std::size_t kShards = 4;
  const std::size_t rows = (reader.num_nodes() + kShards - 1) / kShards;
  std::vector<ShardBlock> sequential;
  for (std::size_t s = 0; s < kShards; ++s) {
    sequential.push_back(reader.load_shard(
        s * rows, std::min(reader.num_nodes(), (s + 1) * rows)));
  }
  std::vector<ShardBlock> concurrent(kShards);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      concurrent[s] = reader.load_shard(
          s * rows, std::min(reader.num_nodes(), (s + 1) * rows));
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(concurrent[s].offsets, sequential[s].offsets) << "shard " << s;
    EXPECT_EQ(concurrent[s].targets, sequential[s].targets) << "shard " << s;
  }
}

TEST_F(ShardLoaderTest, ReaderMovesWithItsSpill) {
  write("0 1\n1 2\n");
  EdgeListShardReader first(path_);
  const EdgeListShardReader moved(std::move(first));
  std::remove(path_.c_str());
  const ShardBlock shard = moved.load_shard(0, 3);
  EXPECT_EQ(shard.targets.size(), 4u);
}

TEST_F(ShardLoaderTest, MalformedLinesStillRejected) {
  write("0 1 junk\n");
  EXPECT_THROW((void)EdgeListShardReader(path_), util::ParseError);
}

TEST_F(ShardLoaderTest, ShardReadFaultPointFires) {
  write("0 1\n");
  const EdgeListShardReader reader(path_);
  util::arm_fault("io.shard.read");
  EXPECT_THROW((void)reader.load_shard(0, 1), util::IoError);
}

}  // namespace
}  // namespace sgp::graph
