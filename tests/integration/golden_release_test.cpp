// End-to-end golden pin: a fixed-seed graph published through every path
// (the per-edge reference, the in-memory publisher and out-of-core
// publish_sharded) must equal the byte-for-byte pinned release checked in
// under integration/golden/.
// This freezes the whole chain — generator stream, counter RNG, calibration
// constants, header encoding, payload endianness — as one artifact; any
// drift anywhere shows up as a byte diff here before it can silently change
// what data owners release.
//
// To regenerate after a *deliberate* format or RNG change:
//   SGP_UPDATE_GOLDEN=1 ./integration_test --gtest_filter='GoldenRelease.*'
// and commit the rewritten files under tests/integration/golden/.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "../reference_publish.hpp"

namespace sgp::core {
namespace {

const std::string kEdgesPath =
    std::string(SGP_GOLDEN_DIR) + "/graph_n24.edges";
const std::string kReleasePath =
    std::string(SGP_GOLDEN_DIR) + "/release_n24_m8.bin";

RandomProjectionPublisher::Options golden_options() {
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 8;
  opt.seed = 4321;
  return opt;
}

graph::Graph golden_graph() {
  random::Rng rng(2026);
  return graph::barabasi_albert(24, 3, rng);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ADD_FAILURE() << "missing golden file " << path
                  << " (run with SGP_UPDATE_GOLDEN=1 to create)";
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool update_mode() { return std::getenv("SGP_UPDATE_GOLDEN") != nullptr; }

TEST(GoldenRelease, GeneratorStreamMatchesPinnedEdgeList) {
  std::ostringstream edges;
  graph::write_edge_list(golden_graph(), edges);
  if (update_mode()) {
    std::ofstream out(kEdgesPath, std::ios::binary);
    out << edges.str();
    GTEST_SKIP() << "rewrote " << kEdgesPath;
  }
  EXPECT_EQ(edges.str(), file_bytes(kEdgesPath))
      << "generator or edge-list format drift";
}

TEST(GoldenRelease, InMemoryPathMatchesPinnedRelease) {
  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream out(std::ios::binary);
  test::reference_publish(g, golden_options(), out);
  if (update_mode()) {
    std::ofstream f(kReleasePath, std::ios::binary);
    f << out.str();
    GTEST_SKIP() << "rewrote " << kReleasePath;
  }
  EXPECT_EQ(out.str(), file_bytes(kReleasePath))
      << "publish pipeline byte drift (RNG, calibration, or format)";
}

// The reference above authors the pin; the library's own in-memory path
// (publish_rows over the whole adjacency matrix, then save_published) must
// reproduce it too.
TEST(GoldenRelease, PublisherPathMatchesPinnedRelease) {
  if (update_mode()) {
    GTEST_SKIP() << "golden files are authored by the reference path";
  }
  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream out(std::ios::binary);
  save_published(RandomProjectionPublisher(golden_options()).publish(g), out);
  EXPECT_EQ(out.str(), file_bytes(kReleasePath))
      << "in-memory publisher drifted from the pinned release";
}

TEST(GoldenRelease, ShardedPathMatchesPinnedRelease) {
  if (update_mode()) {
    GTEST_SKIP() << "golden files are authored by the in-memory path";
  }
  const std::string pinned = file_bytes(kReleasePath);
  graph::EdgeListShardReader reader(kEdgesPath, graph::IdPolicy::kPreserve);
  for (const std::size_t shard_rows :
       {std::size_t{1}, std::size_t{5}, std::size_t{24}}) {
    const std::string out_path = testing::TempDir() + "/sgp_golden_s" +
                                 std::to_string(shard_rows) + ".bin";
    ShardedPublishOptions opt;
    opt.publish = golden_options();
    opt.shard_rows = shard_rows;
    opt.threads = 2;
    publish_sharded(reader, opt, out_path);
    std::ifstream in(out_path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), pinned) << "sharded drift at shard_rows="
                                 << shard_rows;
    std::remove(out_path.c_str());
  }
}

TEST(GoldenRelease, PinnedReleaseLoadsAndMatchesMetadata) {
  if (update_mode()) GTEST_SKIP();
  const PublishedGraph pub = load_published_file(kReleasePath);
  EXPECT_EQ(pub.num_nodes, 24u);
  EXPECT_EQ(pub.projection_dim, 8u);
  EXPECT_EQ(pub.projection_rng, ProjectionRngKind::kCounterV1);
  EXPECT_DOUBLE_EQ(pub.params.epsilon, 1.0);
  EXPECT_DOUBLE_EQ(pub.params.delta, 1e-6);
}

}  // namespace
}  // namespace sgp::core
