// Kernel-variant differential suite (ctest label: simd).
//
// The dispatch contract, end to end: for every kernel variant this machine
// supports, every publish path (in-memory, streaming, sharded at several
// shard×thread points) must produce the same release bytes as every other
// path under the same variant — and the polynomial variants must all produce
// the same bytes as each other, tagged "counter-v1-simd" so reconstruction
// regenerates the identical projection anywhere. The scalar variant must
// keep producing the byte-pinned "counter-v1" releases the golden suite
// checks. tests/slow/differential_matrix_test.cpp runs the deep version of
// the shard×thread sweep; this file keeps a representative slice in tier 1.
//
// The variant and shard×thread axes are SGP_PARAMETERIZE declarations in
// tests/scenario/test_axes.hpp; tests/scenario/migration_pin_test.cpp pins
// their cell counts to the hand-rolled loops this file used to carry.
// Variants the build/CPU lacks skip at runtime inside each SGP_PICK sweep.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/publisher.hpp"
#include "core/reconstruction.hpp"
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

class KernelDifferentialTest : public testing::Test {
 protected:
  void SetUp() override {
    const std::string stem =
        testing::TempDir() + "/sgp_kernel_diff_" +
        testing::UnitTest::GetInstance()->current_test_info()->name();
    edges_path_ = stem + ".edges";
    out_path_ = stem + ".bin";
    random::Rng rng(77);
    graph_ = graph::erdos_renyi(72, 0.09, rng);
    graph::write_edge_list_file(graph_, edges_path_);
  }
  void TearDown() override {
    std::remove(edges_path_.c_str());
    std::remove(out_path_.c_str());
    std::remove((out_path_ + ".ckpt").c_str());
  }

  RandomProjectionPublisher::Options options(random::KernelVariant kernel,
                                             ProjectionKind projection =
                                                 ProjectionKind::kGaussian)
      const {
    RandomProjectionPublisher::Options opt;
    opt.projection_dim = 12;
    opt.seed = 4242;
    opt.kernel = kernel;
    opt.projection = projection;
    return opt;
  }

  std::string in_memory_bytes(
      const RandomProjectionPublisher::Options& opt) const {
    const auto release = RandomProjectionPublisher(opt).publish(graph_);
    std::ostringstream out(std::ios::binary);
    save_published(release, out);
    return out.str();
  }

  std::string streaming_bytes(
      const RandomProjectionPublisher::Options& opt) const {
    std::ostringstream out(std::ios::binary);
    test::reference_publish(graph_, opt, out);
    return out.str();
  }

  std::string sharded_bytes(const RandomProjectionPublisher::Options& opt,
                            std::size_t shard_rows,
                            std::size_t threads) const {
    graph::EdgeListShardReader reader(edges_path_, graph::IdPolicy::kPreserve);
    ShardedPublishOptions sopt;
    sopt.publish = opt;
    sopt.shard_rows = shard_rows;
    sopt.threads = threads;
    sopt.resume = false;
    publish_sharded(reader, sopt, out_path_);
    std::ifstream in(out_path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  graph::Graph graph_;
  std::string edges_path_;
  std::string out_path_;
};

TEST_F(KernelDifferentialTest, AllPathsAgreePerVariantAcrossShardsAndThreads) {
  random::KernelVariant kernel = random::KernelVariant::kScalar;
  SGP_PICK(kernel_variants, kernel) {
    if (!random::kernel_supported(kernel)) continue;
    const auto opt = options(kernel);
    const std::string reference = in_memory_bytes(opt);
    EXPECT_EQ(streaming_bytes(opt), reference)
        << "streaming, kernel " << SGP_PICK_LABEL(kernel);
    ShardThread cell{};
    SGP_PICK(kernel_diff_shard_thread, cell) {
      EXPECT_EQ(sharded_bytes(opt, cell.first, cell.second), reference)
          << "cell " << SGP_PICK_LABEL(cell) << ", kernel "
          << SGP_PICK_LABEL(kernel);
    }
  }
}

TEST_F(KernelDifferentialTest, PolynomialVariantsProduceIdenticalReleases) {
  const std::string reference =
      in_memory_bytes(options(random::KernelVariant::kGeneric));
  random::KernelVariant kernel = random::KernelVariant::kScalar;
  SGP_PICK(kernel_variants, kernel) {
    if (kernel == random::KernelVariant::kScalar) continue;
    if (!random::kernel_supported(kernel)) continue;
    EXPECT_EQ(in_memory_bytes(options(kernel)), reference)
        << "kernel " << SGP_PICK_LABEL(kernel);
  }
  // ... and they are a different mapping than scalar, under a different tag.
  EXPECT_NE(in_memory_bytes(options(random::KernelVariant::kScalar)),
            reference);
}

TEST_F(KernelDifferentialTest, GaussianReleasesRecordTheNormalMapping) {
  const auto scalar =
      RandomProjectionPublisher(options(random::KernelVariant::kScalar))
          .publish(graph_);
  EXPECT_EQ(scalar.projection_rng, ProjectionRngKind::kCounterV1);
  const auto poly =
      RandomProjectionPublisher(options(random::KernelVariant::kGeneric))
          .publish(graph_);
  EXPECT_EQ(poly.projection_rng, ProjectionRngKind::kCounterV1Simd);
}

TEST_F(KernelDifferentialTest, AchlioptasProjectionIsKernelInvariant) {
  // The achlioptas *projection* consumes only exact ops (uniforms), which
  // are bit-identical under every variant — so its header tag stays
  // "counter-v1" and the regenerated P is the same matrix no matter which
  // kernel published it. (The release bytes still differ under a polynomial
  // kernel, because the additive noise is gaussian normals; only P has to
  // be regenerable, and the tag describes P.)
  const auto reference = make_projection_counter(
      graph_.num_nodes(), 12, ProjectionKind::kAchlioptas, 4242,
      random::KernelVariant::kScalar);
  random::KernelVariant kernel = random::KernelVariant::kScalar;
  SGP_PICK(kernel_variants, kernel) {
    if (!random::kernel_supported(kernel)) continue;
    const auto opt = options(kernel, ProjectionKind::kAchlioptas);
    const auto release = RandomProjectionPublisher(opt).publish(graph_);
    EXPECT_EQ(release.projection_rng, ProjectionRngKind::kCounterV1)
        << "kernel " << SGP_PICK_LABEL(kernel);
    const auto p = regenerate_projection(release, opt.seed);
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t j = 0; j < p.cols(); ++j) {
        ASSERT_EQ(p(i, j), reference(i, j))
            << "kernel " << SGP_PICK_LABEL(kernel);
      }
    }
  }
}

TEST_F(KernelDifferentialTest, SimdReleasesRoundTripThroughReconstruction) {
  // A polynomial release written on this machine must regenerate the exact
  // projection via the tag alone (no kernel knowledge at load time).
  random::KernelVariant kernel = random::KernelVariant::kScalar;
  SGP_PICK(kernel_variants, kernel) {
    if (!random::kernel_supported(kernel)) continue;
    const auto opt = options(kernel);
    const auto release = RandomProjectionPublisher(opt).publish(graph_);
    std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
    save_published(release, io);
    const PublishedGraph loaded = load_published(io);
    EXPECT_EQ(loaded.projection_rng, release.projection_rng);
    const auto p = regenerate_projection(loaded, opt.seed);
    const auto direct = make_projection_counter(
        graph_.num_nodes(), opt.projection_dim, opt.projection, opt.seed,
        kernel);
    ASSERT_EQ(p.rows(), direct.rows());
    ASSERT_EQ(p.cols(), direct.cols());
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t j = 0; j < p.cols(); ++j) {
        ASSERT_EQ(p(i, j), direct(i, j))
            << "kernel " << random::to_string(kernel);
      }
    }
  }
}

}  // namespace
}  // namespace sgp::core
