#include "cluster/kmeans.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/vector_ops.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace sgp::cluster {
namespace {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

/// Relative safety margin of the skip test. A d-term distance carries a
/// relative rounding error near d·2⁻⁵³ (about 1e-14 at d = 64); this is far
/// above it, so a bound that clears the margin also holds for the exact
/// distances, and the full scan would have picked the same centroid.
constexpr double kMargin = 1e-9;

struct Nearest {
  std::uint32_t index = 0;  ///< nearest centroid, ties to the lower index
  double d2 = 0.0;          ///< its squared distance
  double second_d2 = 0.0;   ///< smallest squared distance to any other
};

/// The centroid nearest to `point` (ties keep the lower index), its squared
/// distance, and the second-smallest squared distance. Centroids are
/// measured four at a time, each by its own accumulator summing in
/// dimension order — the exact value squared_distance returns — so the four
/// add chains run independently instead of one chain bounding the scan by
/// its latency.
Nearest nearest_centroid(std::span<const double> point,
                         const linalg::DenseMatrix& centroids) {
  const std::size_t k = centroids.rows();
  double best = std::numeric_limits<double>::max();
  double second = std::numeric_limits<double>::max();
  std::uint32_t best_c = 0;
  const auto consider = [&](std::size_t c, double d2) {
    if (d2 < best) {
      second = best;
      best = d2;
      best_c = static_cast<std::uint32_t>(c);
    } else if (d2 < second) {
      second = d2;
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
  return {best_c, best, second};
}

/// s(c) for every centroid: half the distance from c to its nearest other
/// centroid (+∞ when k = 1). By the triangle inequality a point closer than
/// s(c) to c is closer to c than to any other centroid.
void half_gaps(const linalg::DenseMatrix& centroids, std::vector<double>& s) {
  const std::size_t k = centroids.rows();
  std::fill(s.begin(), s.end(), std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < k; ++c) {
    for (std::size_t b = c + 1; b < k; ++b) {
      const double d2 = squared_distance(centroids.row(c), centroids.row(b));
      if (d2 < s[c]) s[c] = d2;
      if (d2 < s[b]) s[b] = d2;
    }
  }
  for (double& gap : s) gap = 0.5 * std::sqrt(gap);
}

/// k-means++ seeding: first centroid uniform, subsequent ones sampled with
/// probability proportional to squared distance from the nearest chosen one.
/// The distance refresh runs in parallel; the total and the sampling walk
/// stay serial and in index order, so the seeds do not depend on threads.
linalg::DenseMatrix seed_centroids(const linalg::DenseMatrix& points,
                                   std::size_t k, random::Rng& rng) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  linalg::DenseMatrix centroids(k, d);

  std::vector<double> dist2(n, std::numeric_limits<double>::max());
  std::size_t first = rng.next_below(n);
  std::copy(points.row(first).begin(), points.row(first).end(),
            centroids.row(0).begin());

  for (std::size_t c = 1; c < k; ++c) {
    const auto last = centroids.row(c - 1);
    util::parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        dist2[i] = std::min(dist2[i], squared_distance(points.row(i), last));
      }
    });
    double total = 0.0;
    for (const double d2 : dist2) total += d2;
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

/// Lloyd's iterations with Hamerly's bounds (SDM 2010). Every point gets its
/// exact squared distance to its own centroid each iteration — that is its
/// inertia term, so the stopping test sees the same sum — and skips the
/// full centroid scan when that distance is, by the margin, below both s of
/// its centroid and its lower bound on the distance to every other
/// centroid. A skipped point's scan would have returned the same centroid
/// and the same squared distance, so the run is plain Lloyd's bit for bit.
KMeansResult lloyd_run(const linalg::DenseMatrix& points,
                       const KMeansOptions& options, random::Rng& rng) {
  const std::size_t n = points.rows();
  const std::size_t d = points.cols();
  const std::size_t k = options.k;
  static obs::Counter& points_scanned =
      obs::counter(obs::names::kKmeansPointsScanned);

  KMeansResult result;
  result.centroids = seed_centroids(points, k, rng);
  result.assignments.assign(n, 0);
  double previous_inertia = std::numeric_limits<double>::max();

  // lower[i] never exceeds the distance from point i to any centroid but its
  // own: every write rounds it down by the margin. It starts at 0, which
  // proves nothing, so the first iteration's skips come from s alone — and
  // the s test holds whatever the current assignment is.
  std::vector<double> lower(n, 0.0);
  std::vector<double> point_cost(n, 0.0);
  std::vector<double> s(k);
  double drift = 0.0;  // the farthest any centroid moved in the last update

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    half_gaps(result.centroids, s);
    // Assignment step (parallel over points).
    std::atomic<std::size_t> scanned{0};
    util::parallel_for(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          std::size_t chunk_scanned = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            const auto point = points.row(i);
            const std::uint32_t own = result.assignments[i];
            const double d2 =
                squared_distance(point, result.centroids.row(own));
            lower[i] = (lower[i] - drift) * (1.0 - kMargin);
            if (std::sqrt(d2) * (1.0 + kMargin) <
                std::max(s[own], lower[i]) * (1.0 - kMargin)) {
              point_cost[i] = d2;
              continue;
            }
            const Nearest nearest = nearest_centroid(point, result.centroids);
            result.assignments[i] = nearest.index;
            point_cost[i] = nearest.d2;
            lower[i] = std::sqrt(nearest.second_d2) * (1.0 - kMargin);
            ++chunk_scanned;
          }
          scanned += chunk_scanned;
        },
        512);
    points_scanned.add(scanned.load());
    double inertia = 0.0;
    for (double pc : point_cost) inertia += pc;
    result.inertia = inertia;

    // Update step.
    const linalg::DenseMatrix before = result.centroids;
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
        static obs::Counter& reseeds = obs::counter(obs::names::kKmeansReseeds);
        reseeds.add();
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

    // Lower bounds fall by the largest centroid move (a reseed is just a
    // long move), rounded up by the margin so they stay bounds.
    double max_move = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      max_move = std::max(
          max_move, std::sqrt(squared_distance(before.row(c),
                                               result.centroids.row(c))));
    }
    drift = max_move * (1.0 + kMargin);
  }
  return result;
}

}  // namespace

KMeansResult kmeans(const linalg::DenseMatrix& points,
                    const KMeansOptions& options) {
  const std::size_t n = points.rows();
  util::require(n > 0, "kmeans: need at least one point");
  util::require(options.k >= 1 && options.k <= n,
                "kmeans: k must be in [1, #points]");
  util::require(options.restarts >= 1, "kmeans: restarts must be >= 1");

  random::Rng rng(options.seed);
  obs::ScopedTimer timer(obs::names::kKmeans);
  timer.attr("points", n).attr("k", options.k);
  static obs::Counter& runs = obs::counter(obs::names::kKmeansRuns);
  static obs::Counter& iterations = obs::counter(obs::names::kKmeansIterations);
  KMeansResult best;
  best.inertia = std::numeric_limits<double>::max();
  for (std::size_t r = 0; r < options.restarts; ++r) {
    KMeansResult candidate = lloyd_run(points, options, rng);
    runs.add();
    iterations.add(candidate.iterations);
    if (candidate.inertia < best.inertia) best = std::move(candidate);
  }
  return best;
}

}  // namespace sgp::cluster
