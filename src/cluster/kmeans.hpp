// k-means with k-means++ seeding and multi-restart — the final stage of the
// spectral-clustering pipeline used in the paper's node-clustering utility
// evaluation. Assignments are exactly Lloyd's: the same bits as measuring
// every point against every centroid on every iteration. Hamerly's bounds
// (SDM 2010), held with a relative safety margin far above rounding error,
// only skip the centroid scans whose outcome they prove.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/dense_matrix.hpp"

namespace sgp::cluster {

struct KMeansOptions {
  std::size_t k = 2;
  std::size_t max_iterations = 100;
  double tolerance = 1e-6;  ///< stop when inertia improves less than this
  std::uint64_t seed = 7;
  std::size_t restarts = 4;  ///< independent k-means++ runs; best kept
};

struct KMeansResult {
  std::vector<std::uint32_t> assignments;  ///< cluster id per point
  linalg::DenseMatrix centroids;           ///< k × d
  double inertia = 0.0;                    ///< Σ point-to-centroid squared dist
  std::size_t iterations = 0;              ///< Lloyd iterations of best run
};

/// Clusters the rows of `points` (n×d) into `k` groups.
/// Requires 1 <= k <= n. Deterministic for a fixed seed.
KMeansResult kmeans(const linalg::DenseMatrix& points,
                    const KMeansOptions& options);

}  // namespace sgp::cluster
