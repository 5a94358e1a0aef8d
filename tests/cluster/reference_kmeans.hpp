// Independent reference k-means for the cluster differential suites.
//
// This is plain Lloyd's algorithm with k-means++ seeding and restarts: every
// iteration measures every point against every centroid. cluster::kmeans
// skips the scan for points whose distance bounds prove their assignment,
// and seeds in parallel; both are exact, so it must return these bits —
// the same assignments, inertia, centroids and iteration count. A bound
// that lets a point skip when it should not shows up as a difference here.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/kmeans.hpp"
#include "linalg/dense_matrix.hpp"
#include "random/rng.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sgp::test {
namespace reference_kmeans_detail {

inline double squared_distance(std::span<const double> a,
                               std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// Index of the centroid nearest to `point` (ties keep the lower index) and
/// its squared distance, four centroids at a time, each summed in dimension
/// order.
inline std::pair<std::uint32_t, double> nearest_centroid(
    std::span<const double> point, const linalg::DenseMatrix& centroids) {
  const std::size_t k = centroids.rows();
  double best = std::numeric_limits<double>::max();
  std::uint32_t best_c = 0;
  const auto consider = [&](std::size_t c, double d2) {
    if (d2 < best) {
      best = d2;
      best_c = static_cast<std::uint32_t>(c);
    }
  };
  std::size_t c = 0;
  for (; c + 4 <= k; c += 4) {
    double acc[4] = {};
    for (std::size_t j = 0; j < point.size(); ++j) {
      for (std::size_t b = 0; b < 4; ++b) {
        const double d = point[j] - centroids(c + b, j);
        acc[b] += d * d;
      }
    }
    for (std::size_t b = 0; b < 4; ++b) consider(c + b, acc[b]);
  }
  for (; c < k; ++c) consider(c, squared_distance(point, centroids.row(c)));
  return {best_c, best};
}

/// k-means++ seeding: first centroid uniform, subsequent ones sampled with
/// probability proportional to squared distance from the nearest chosen one.
inline linalg::DenseMatrix seed_centroids(const linalg::DenseMatrix& points,
                                          std::size_t k, random::Rng& rng) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  linalg::DenseMatrix centroids(k, d);

  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  std::size_t first = rng.next_below(n);
  std::copy(points.row(first).begin(), points.row(first).end(),
            centroids.row(0).begin());

  for (std::size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      dist2[i] =
          std::min(dist2[i], squared_distance(points.row(i),
                                              centroids.row(c - 1)));
      total += dist2[i];
    }
    std::size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.next_double() * total;
      for (std::size_t i = 0; i < n; ++i) {
        target -= dist2[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = rng.next_below(n);  // all points identical to a centroid
    }
    std::copy(points.row(chosen).begin(), points.row(chosen).end(),
              centroids.row(c).begin());
  }
  return centroids;
}

inline cluster::KMeansResult lloyd_run(const linalg::DenseMatrix& points,
                                       const cluster::KMeansOptions& options,
                                       random::Rng& rng) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = options.k;

  cluster::KMeansResult result;
  result.centroids = seed_centroids(points, k, rng);
  result.assignments.assign(n, 0);
  double previous_inertia = std::numeric_limits<double>::max();

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Assignment step (parallel over points).
    double inertia = 0.0;
    {
      std::vector<double> point_cost(n, 0.0);
      util::parallel_for(
          0, n,
          [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
              const auto [c, d2] =
                  nearest_centroid(points.row(i), result.centroids);
              result.assignments[i] = c;
              point_cost[i] = d2;
            }
          },
          512);
      for (double pc : point_cost) inertia += pc;
    }
    result.inertia = inertia;

    // Update step.
    linalg::DenseMatrix sums(k, d);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t c = result.assignments[i];
      ++counts[c];
      auto srow = sums.row(c);
      const auto prow = points.row(i);
      for (std::size_t j = 0; j < d; ++j) srow[j] += prow[j];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster at a random point: keeps k clusters alive.
        const std::size_t pick = rng.next_below(n);
        std::copy(points.row(pick).begin(), points.row(pick).end(),
                  result.centroids.row(c).begin());
        continue;
      }
      const double inv = 1.0 / static_cast<double>(counts[c]);
      auto crow = result.centroids.row(c);
      const auto srow = sums.row(c);
      for (std::size_t j = 0; j < d; ++j) crow[j] = srow[j] * inv;
    }

    if (previous_inertia - inertia <= options.tolerance) break;
    previous_inertia = inertia;
  }
  return result;
}

}  // namespace reference_kmeans_detail

/// Best of `options.restarts` plain Lloyd runs, drawn from one Rng in turn —
/// the result cluster::kmeans must reproduce bit for bit.
inline cluster::KMeansResult reference_kmeans(
    const linalg::DenseMatrix& points, const cluster::KMeansOptions& options) {
  util::require(points.rows() > 0 && options.k >= 1 &&
                    options.k <= points.rows() && options.restarts >= 1,
                "reference_kmeans: need 1 <= k <= n and restarts >= 1");
  random::Rng rng(options.seed);
  cluster::KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (std::size_t r = 0; r < options.restarts; ++r) {
    cluster::KMeansResult candidate =
        reference_kmeans_detail::lloyd_run(points, options, rng);
    if (candidate.inertia < best.inertia) best = std::move(candidate);
  }
  return best;
}

/// "" when `got` and `want` are the same bits — assignments, inertia,
/// centroids and iteration count — else a description of the first
/// difference.
inline std::string kmeans_difference(const cluster::KMeansResult& got,
                                     const cluster::KMeansResult& want) {
  if (got.iterations != want.iterations) {
    return "iterations " + std::to_string(got.iterations) + " vs " +
           std::to_string(want.iterations);
  }
  if (std::bit_cast<std::uint64_t>(got.inertia) !=
      std::bit_cast<std::uint64_t>(want.inertia)) {
    return "inertia " + std::to_string(got.inertia) + " vs " +
           std::to_string(want.inertia);
  }
  for (std::size_t i = 0; i < want.assignments.size(); ++i) {
    if (i >= got.assignments.size() ||
        got.assignments[i] != want.assignments[i]) {
      return "assignment of point " + std::to_string(i);
    }
  }
  if (got.assignments.size() != want.assignments.size()) {
    return "assignment count";
  }
  if (got.centroids.rows() != want.centroids.rows() ||
      got.centroids.cols() != want.centroids.cols()) {
    return "centroid shape";
  }
  const auto a = got.centroids.data();
  const auto b = want.centroids.data();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return "centroid coordinate " + std::to_string(i);
    }
  }
  return "";
}

}  // namespace sgp::test
