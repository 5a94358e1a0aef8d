// cluster::kmeans against the plain-Lloyd oracle (reference_kmeans.hpp),
// bit for bit: the bound-accelerated assignment step and the parallel
// seeding must not change a single assignment, centroid bit, inertia bit or
// iteration count. The cases aim at the places where a bound could be
// unsound or a tie broken differently.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/kmeans.hpp"
#include "cluster/spectral.hpp"
#include "graph/generators.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "reference_kmeans.hpp"

namespace sgp::cluster {
namespace {

std::string run_label(const KMeansOptions& opt) {
  return "k=" + std::to_string(opt.k) + " seed=" + std::to_string(opt.seed) +
         " restarts=" + std::to_string(opt.restarts);
}

/// Runs both implementations and expects identical bits.
void expect_same_as_oracle(const linalg::DenseMatrix& points,
                           const KMeansOptions& opt) {
  const KMeansResult got = kmeans(points, opt);
  const KMeansResult want = test::reference_kmeans(points, opt);
  EXPECT_EQ(test::kmeans_difference(got, want), "") << run_label(opt);
}

/// `num_centers` Gaussian blobs of `per_blob` points in d dimensions.
linalg::DenseMatrix blobs(std::size_t d, std::size_t num_centers,
                          std::size_t per_blob, double spread,
                          std::uint64_t seed) {
  random::Rng rng(seed);
  linalg::DenseMatrix centers(num_centers, d);
  for (double& x : centers.data()) x = random::normal(rng, 0.0, 10.0);
  linalg::DenseMatrix pts(num_centers * per_blob, d);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      pts(i, j) = centers(i / per_blob, j) + random::normal(rng, 0.0, spread);
    }
  }
  return pts;
}

/// Squared distance from row i of `points` to row c of `centroids`.
double dist2(const linalg::DenseMatrix& points, std::size_t i,
             const linalg::DenseMatrix& centroids, std::size_t c) {
  double acc = 0.0;
  for (std::size_t j = 0; j < points.cols(); ++j) {
    const double d = points(i, j) - centroids(c, j);
    acc += d * d;
  }
  return acc;
}

TEST(KMeansOracleTest, SeparatedBlobs) {
  const auto pts = blobs(2, 3, 50, 0.2, 1);
  for (const std::uint64_t seed : {1, 2, 3}) {
    KMeansOptions opt;
    opt.k = 3;
    opt.seed = seed;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, OverlappingBlobsManyIterations) {
  // Noisy blobs converge slowly, so the lower bounds drift for many
  // iterations before points rescan.
  const auto pts = blobs(4, 6, 80, 6.0, 2);
  for (const std::size_t k : {4, 6, 8}) {
    KMeansOptions opt;
    opt.k = k;
    opt.seed = 11;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, AllDuplicatePoints) {
  // Every distance ties everywhere: every centroid coincides, and every
  // point must go to centroid 0 exactly as the plain scan sends it.
  linalg::DenseMatrix pts(40, 3);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    pts(i, 0) = 1.5;
    pts(i, 1) = -2.0;
    pts(i, 2) = 0.25;
  }
  for (const std::size_t k : {1, 2, 3, 4, 7}) {
    KMeansOptions opt;
    opt.k = k;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, EquidistantPointsGoToTheLowerIndex) {
  // On this integer line the means land on integers and half-integers, so
  // points sit exactly midway between two centroids; the plain scan gives
  // them to the lower index. Some seeds must end on such a tie for the
  // case to test anything.
  linalg::DenseMatrix pts(7, 1, {0, 1, 2, 3, 3, 4, 6});
  std::size_t final_ties = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const std::size_t k : {2, 3}) {
      KMeansOptions opt;
      opt.k = k;
      opt.seed = seed;
      opt.restarts = 1;
      expect_same_as_oracle(pts, opt);
      const KMeansResult res = kmeans(pts, opt);
      for (std::size_t i = 0; i < pts.rows(); ++i) {
        const double own = dist2(pts, i, res.centroids, res.assignments[i]);
        for (std::size_t c = 0; c < k; ++c) {
          if (c == res.assignments[i]) continue;
          if (dist2(pts, i, res.centroids, c) != own) continue;
          EXPECT_LT(res.assignments[i], c) << run_label(opt) << " point " << i;
          ++final_ties;
        }
      }
    }
  }
  EXPECT_GT(final_ties, 0u);
}

TEST(KMeansOracleTest, EmptyClusterReseed) {
  // Two stacks of duplicates and k = 5: seeding runs out of distinct
  // points, a centroid that coincides with a lower-index one wins no
  // points, and the update step reseeds it — long centroid jumps the
  // lower bounds must absorb.
  linalg::DenseMatrix pts(20, 2);
  for (std::size_t i = 10; i < 20; ++i) {
    pts(i, 0) = 5.0;
    pts(i, 1) = -3.0;
  }
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& reseeds = obs::counter(obs::names::kKmeansReseeds);
  const std::uint64_t before = reseeds.value();
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    KMeansOptions opt;
    opt.k = 5;
    opt.seed = seed;
    expect_same_as_oracle(pts, opt);
  }
  EXPECT_GT(reseeds.value(), before) << "the case must force a reseed";
  obs::set_metrics_enabled(was_enabled);
}

TEST(KMeansOracleTest, ReseedOntoAnOccupiedStack) {
  // A stack of points at the origin and a cloud; with this seed a cluster
  // empties and is reseeded exactly onto the stack, which a higher-index
  // centroid already sits on. Both distances are then exactly 0, and the
  // plain scan hands the stack to the lower index — so the skip test must
  // be strict, never "bound <= gap".
  const linalg::DenseMatrix pts(
      21, 1,
      {0, 0, 0, 0, 0, 2.2448809770828002, 4.1578386938612617,
       3.2911262166786099, 3.9858423829052523, 2.3849928691920157,
       4.7699498534006439, 4.2861319326647633, 1.3613409219845289,
       1.4150964379832209, 1.6030508638059979, 1.5500397239834847,
       2.9960101697778847, 4.2915929279004761, 1.4428153860616164,
       4.2391675347033164, 4.7137214729044761});
  KMeansOptions opt;
  opt.k = 6;
  opt.seed = 146691;
  opt.restarts = 1;
  expect_same_as_oracle(pts, opt);
}

TEST(KMeansOracleTest, KEqualsOneAndKEqualsN) {
  const auto pts = blobs(3, 4, 6, 1.0, 3);
  for (const std::size_t k : {std::size_t{1}, pts.rows()}) {
    KMeansOptions opt;
    opt.k = k;
    opt.seed = 5;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, KNotAMultipleOfFour) {
  // The scan measures four centroids at a time and the rest one by one.
  const auto pts = blobs(8, 7, 40, 2.0, 4);
  for (const std::size_t k : {3, 5, 6, 7, 9, 11}) {
    KMeansOptions opt;
    opt.k = k;
    opt.seed = 6;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, SixtyFourDimensions) {
  const auto pts = blobs(64, 10, 60, 3.0, 5);
  for (const std::size_t k : {8, 10, 13}) {
    KMeansOptions opt;
    opt.k = k;
    opt.seed = 7;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, RowNormalizedSbmEmbedding) {
  // The spectral pipeline's own input: unit-norm rows of an SBM adjacency
  // embedding, where communities are near-orthogonal directions.
  random::Rng rng(8);
  const graph::PlantedGraph sbm =
      graph::stochastic_block_model({60, 60, 60, 60, 60}, 0.3, 0.03, rng);
  linalg::DenseMatrix pts = adjacency_spectral_embedding(sbm.graph, 5, 8);
  for (std::size_t i = 0; i < pts.rows(); ++i) {
    auto row = pts.row(i);
    const double nrm = linalg::norm2(row);
    if (nrm > 1e-12) linalg::scale(row, 1.0 / nrm);
  }
  for (const std::size_t k : {2, 4, 5, 8}) {
    KMeansOptions opt;
    opt.k = k;
    opt.seed = 9;
    expect_same_as_oracle(pts, opt);
  }
}

TEST(KMeansOracleTest, PointsScannedCountsFullScans) {
  // Every point scans on the first iteration at most; on separated blobs
  // the bounds then let most of them skip, and the counter says so.
  const auto pts = blobs(4, 5, 200, 0.5, 10);
  const bool was_enabled = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  obs::Counter& scanned = obs::counter(obs::names::kKmeansPointsScanned);
  obs::Counter& iterations = obs::counter(obs::names::kKmeansIterations);
  const std::uint64_t scanned_before = scanned.value();
  const std::uint64_t iterations_before = iterations.value();
  KMeansOptions opt;
  opt.k = 5;
  opt.seed = 12;
  opt.tolerance = 0.0;  // run to the fixed point
  kmeans(pts, opt);
  const std::uint64_t points_scanned = scanned.value() - scanned_before;
  const std::uint64_t visits =
      pts.rows() * (iterations.value() - iterations_before);
  obs::set_metrics_enabled(was_enabled);
  EXPECT_GT(points_scanned, 0u);
  EXPECT_LT(points_scanned, visits / 2) << "of " << visits << " visits";
}

}  // namespace
}  // namespace sgp::cluster
