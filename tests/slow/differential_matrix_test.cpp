// The full differential matrix from docs/scaling.md: sharded publishing is
// byte-identical to the per-edge reference (tests/reference_publish.hpp)
// across shard heights {1, 7, 64, n} × thread counts {1, 2, 8}, on a graph
// big enough that every shard height produces multiple shards with ragged
// tails. Runs
// under the `slow` ctest configuration only (`ctest -C slow -L slow`);
// tests/core/sharded_publish_test.cpp keeps a fast slice in the default run.
//
// The matrix axes are SGP_PARAMETERIZE declarations shared through
// tests/scenario/test_axes.hpp; tests/scenario/migration_pin_test.cpp pins
// their cell counts to the hand-rolled loops this file replaced.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/serialization.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/kernel_variant.hpp"
#include "random/rng.hpp"

#include "../scenario/test_axes.hpp"
#include "../reference_publish.hpp"

namespace sgp::core {
namespace {

using namespace sgp::test_axes;  // NOLINT: axis accessors for SGP_PICK

constexpr std::size_t kNodes = kDiffNodes;
constexpr std::size_t kDim = 48;

RandomProjectionPublisher::Options publish_options() {
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = kDim;
  opt.seed = 20260807;
  return opt;
}

graph::Graph matrix_graph() {
  random::Rng rng(53);
  return graph::barabasi_albert(kNodes, 6, rng);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// One shared graph + reference release for the whole shard×thread product:
// building them once keeps the 12-cell sweep at seconds instead of minutes.
TEST(DifferentialMatrix, ShardedBytesEqualInMemoryReference) {
  const std::string edges_path =
      testing::TempDir() + "/sgp_diff_matrix.edges";
  const graph::Graph g = matrix_graph();
  graph::write_edge_list_file(g, edges_path);
  std::ostringstream out(std::ios::binary);
  test::reference_publish(g, publish_options(), out);
  const std::string reference = out.str();

  std::size_t shard_rows = 0;
  std::size_t threads = 0;
  SGP_PICK(diff_shard_rows, shard_rows)
  SGP_PICK(diff_threads, threads) {
    const std::string out_path =
        testing::TempDir() + "/sgp_diff_s" + std::to_string(shard_rows) +
        "_t" + std::to_string(threads) + ".bin";
    graph::EdgeListShardReader reader(edges_path, graph::IdPolicy::kPreserve);
    ShardedPublishOptions opt;
    opt.publish = publish_options();
    opt.shard_rows = shard_rows;
    opt.threads = threads;
    const ShardedPublishResult result = publish_sharded(reader, opt, out_path);
    EXPECT_EQ(result.num_nodes, kNodes);
    EXPECT_FALSE(std::filesystem::exists(out_path + ".ckpt"));
    EXPECT_EQ(file_bytes(out_path), reference)
        << "byte drift at shard_rows=" << SGP_PICK_LABEL(shard_rows)
        << " threads=" << SGP_PICK_LABEL(threads);
    std::remove(out_path.c_str());
  }
  std::remove(edges_path.c_str());
}

// Kernel axis of the matrix (docs/scaling.md): for each kernel variant, the
// sharded path across shard heights × thread counts must equal that
// variant's own in-memory streaming reference. Unsupported variants skip
// (the build/CPU may lack an ISA); scalar and generic always run.
TEST(DifferentialMatrix, ShardedBytesEqualStreamingReferencePerKernel) {
  const std::string edges_path =
      testing::TempDir() + "/sgp_diff_kernel.edges";
  const graph::Graph g = matrix_graph();
  graph::write_edge_list_file(g, edges_path);

  random::KernelVariant kernel = random::KernelVariant::kScalar;
  std::size_t shard_rows = 0;
  std::size_t threads = 0;
  SGP_PICK(kernel_variants, kernel)
  SGP_PICK(kernel_matrix_shard_rows, shard_rows)
  SGP_PICK(kernel_matrix_threads, threads) {
    if (!random::kernel_supported(kernel)) continue;
    RandomProjectionPublisher::Options popt = publish_options();
    popt.kernel = kernel;
    std::ostringstream ref(std::ios::binary);
    test::reference_publish(g, popt, ref);

    const std::string out_path =
        testing::TempDir() + "/sgp_diff_k" + SGP_PICK_LABEL(kernel) + "_s" +
        std::to_string(shard_rows) + "_t" + std::to_string(threads) + ".bin";
    graph::EdgeListShardReader reader(edges_path, graph::IdPolicy::kPreserve);
    ShardedPublishOptions opt;
    opt.publish = popt;
    opt.shard_rows = shard_rows;
    opt.threads = threads;
    publish_sharded(reader, opt, out_path);
    EXPECT_EQ(file_bytes(out_path), ref.str())
        << "byte drift at kernel=" << SGP_PICK_LABEL(kernel)
        << " shard_rows=" << SGP_PICK_LABEL(shard_rows)
        << " threads=" << SGP_PICK_LABEL(threads);
    std::remove(out_path.c_str());
  }
  std::remove(edges_path.c_str());
}

// The compact-id remap must survive the matrix too: shard loading under
// kCompact re-resolves ids through the persistent remap, so a sparse messy
// id space is where an ordering bug would surface.
TEST(DifferentialMatrix, SparseIdsByteIdenticalAcrossShardSizes) {
  const std::string edges =
      testing::TempDir() + "/sgp_diff_compact.edges";
  {
    std::ofstream out(edges);
    random::Rng rng(71);
    const graph::Graph g = graph::erdos_renyi(300, 0.03, rng);
    for (std::size_t u = 0; u < g.num_nodes(); ++u) {
      for (const auto v : g.neighbors(u)) {
        if (u < v) out << u * 13 + 5 << '\t' << v * 13 + 5 << '\n';
      }
    }
  }
  RandomProjectionPublisher::Options popt;
  popt.projection_dim = 24;
  popt.seed = 99;

  const graph::Graph g =
      graph::read_edge_list_file(edges, graph::IdPolicy::kCompact);
  std::ostringstream ref(std::ios::binary);
  test::reference_publish(g, popt, ref);

  graph::EdgeListShardReader reader(edges, graph::IdPolicy::kCompact);
  std::size_t shard_rows = 0;
  SGP_PICK(compact_shard_rows, shard_rows) {
    const std::string out_path = testing::TempDir() + "/sgp_diff_compact_" +
                                 std::to_string(shard_rows) + ".bin";
    ShardedPublishOptions opt;
    opt.publish = popt;
    opt.shard_rows = shard_rows;
    opt.threads = 4;
    publish_sharded(reader, opt, out_path);
    EXPECT_EQ(file_bytes(out_path), ref.str())
        << "shard_rows=" << SGP_PICK_LABEL(shard_rows);
    std::remove(out_path.c_str());
  }
  std::remove(edges.c_str());
}

}  // namespace
}  // namespace sgp::core
