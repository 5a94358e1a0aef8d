#include "cluster/kmeans.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <stdexcept>

#include "random/distributions.hpp"
#include "random/rng.hpp"

namespace sgp::cluster {
namespace {

/// Three well-separated Gaussian blobs in 2D; 50 points each.
linalg::DenseMatrix blobs(std::uint64_t seed, double spread = 0.2) {
  random::Rng rng(seed);
  const double centers[3][2] = {{0, 0}, {10, 0}, {0, 10}};
  linalg::DenseMatrix pts(150, 2);
  for (std::size_t i = 0; i < 150; ++i) {
    const auto& c = centers[i / 50];
    pts(i, 0) = c[0] + random::normal(rng, 0.0, spread);
    pts(i, 1) = c[1] + random::normal(rng, 0.0, spread);
  }
  return pts;
}

TEST(KMeansTest, RecoversSeparatedBlobs) {
  KMeansOptions opt;
  opt.k = 3;
  opt.seed = 1;
  const auto res = kmeans(blobs(1), opt);
  // Each blob maps to a single cluster, clusters distinct.
  std::set<std::uint32_t> ids;
  for (std::size_t blob = 0; blob < 3; ++blob) {
    const std::uint32_t first = res.assignments[blob * 50];
    for (std::size_t i = 0; i < 50; ++i) {
      ASSERT_EQ(res.assignments[blob * 50 + i], first) << "blob " << blob;
    }
    ids.insert(first);
  }
  EXPECT_EQ(ids.size(), 3u);
}

TEST(KMeansTest, InertiaIsSumOfSquaredDistances) {
  // k = 6 also runs the assignment scan's four-centroid blocks, k = 3 only
  // its one-at-a-time tail.
  for (const std::size_t k : {3, 6}) {
    KMeansOptions opt;
    opt.k = k;
    opt.seed = 2;
    const auto pts = blobs(2);
    const auto res = kmeans(pts, opt);
    const auto dist2 = [&](std::size_t i, std::size_t c) {
      double d2 = 0;
      for (std::size_t j = 0; j < 2; ++j) {
        const double d = pts(i, j) - res.centroids(c, j);
        d2 += d * d;
      }
      return d2;
    };
    double manual = 0.0;
    for (std::size_t i = 0; i < pts.rows(); ++i) {
      const double assigned = dist2(i, res.assignments[i]);
      manual += assigned;
      // Converged: every point sits with its nearest centroid.
      for (std::size_t c = 0; c < k; ++c) {
        EXPECT_LE(assigned, dist2(i, c) + 1e-12) << "k=" << k << " i=" << i;
      }
    }
    EXPECT_NEAR(res.inertia, manual, 1e-9 * (1.0 + manual)) << "k=" << k;
  }
}

TEST(KMeansTest, KEqualsOneCentroidIsMean) {
  linalg::DenseMatrix pts(4, 1, {1, 2, 3, 6});
  KMeansOptions opt;
  opt.k = 1;
  const auto res = kmeans(pts, opt);
  EXPECT_NEAR(res.centroids(0, 0), 3.0, 1e-12);
  for (auto a : res.assignments) EXPECT_EQ(a, 0u);
}

TEST(KMeansTest, KEqualsNPerfectFit) {
  linalg::DenseMatrix pts(3, 1, {0, 5, 10});
  KMeansOptions opt;
  opt.k = 3;
  const auto res = kmeans(pts, opt);
  EXPECT_NEAR(res.inertia, 0.0, 1e-12);
  std::set<std::uint32_t> ids(res.assignments.begin(), res.assignments.end());
  EXPECT_EQ(ids.size(), 3u);
}

TEST(KMeansTest, DeterministicForSeed) {
  KMeansOptions opt;
  opt.k = 3;
  opt.seed = 42;
  const auto pts = blobs(3);
  const auto r1 = kmeans(pts, opt);
  const auto r2 = kmeans(pts, opt);
  EXPECT_EQ(r1.assignments, r2.assignments);
  EXPECT_DOUBLE_EQ(r1.inertia, r2.inertia);
}

TEST(KMeansTest, MoreRestartsNeverWorse) {
  const auto pts = blobs(4, 2.0);  // noisy blobs → local optima exist
  KMeansOptions one;
  one.k = 3;
  one.seed = 9;
  one.restarts = 1;
  KMeansOptions many = one;
  many.restarts = 8;
  EXPECT_LE(kmeans(pts, many).inertia, kmeans(pts, one).inertia + 1e-9);
}

TEST(KMeansTest, DuplicatePointsDoNotCrash) {
  linalg::DenseMatrix pts(6, 2);  // all at origin
  KMeansOptions opt;
  opt.k = 3;
  const auto res = kmeans(pts, opt);
  EXPECT_NEAR(res.inertia, 0.0, 1e-12);
}

TEST(KMeansTest, InvalidArgsThrow) {
  linalg::DenseMatrix pts(3, 2);
  KMeansOptions opt;
  opt.k = 0;
  EXPECT_THROW(kmeans(pts, opt), std::invalid_argument);
  opt.k = 4;
  EXPECT_THROW(kmeans(pts, opt), std::invalid_argument);
  opt.k = 2;
  opt.restarts = 0;
  EXPECT_THROW(kmeans(pts, opt), std::invalid_argument);
  EXPECT_THROW(kmeans(linalg::DenseMatrix(), opt), std::invalid_argument);
}

}  // namespace
}  // namespace sgp::cluster
