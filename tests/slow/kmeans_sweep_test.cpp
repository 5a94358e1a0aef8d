// Slow differential sweep: cluster::kmeans against the plain-Lloyd oracle
// (tests/cluster/reference_kmeans.hpp) over 240 seeded inputs — k from 2 to
// 40, d in {2, 8, 32}, blob mixtures from well separated to heavily
// overlapping, a third of them snapped to a coarse grid so that duplicate
// points and exact ties are common. Every run must match the oracle bit for
// bit. Runs under the `slow` ctest configuration only
// (`ctest -C slow -L slow`).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "cluster/kmeans.hpp"
#include "random/distributions.hpp"
#include "random/rng.hpp"
#include "../cluster/reference_kmeans.hpp"

namespace sgp::cluster {
namespace {

constexpr std::size_t kInputs = 240;

/// Input `index` of the sweep: n points around a random number of centers,
/// spread drawn on a log scale, optionally rounded to a grid.
linalg::DenseMatrix sweep_points(std::size_t index, std::size_t d,
                                 std::size_t k) {
  random::Rng rng(1000 + index);
  const std::size_t n = k + 200 + rng.next_below(1800);
  const std::size_t centers = 1 + rng.next_below(2 * k);
  const double spread = std::pow(10.0, -1.0 + 2.0 * rng.next_double());
  const bool snapped = index % 3 == 1;
  linalg::DenseMatrix middle(centers, d);
  for (double& x : middle.data()) x = random::normal(rng, 0.0, 5.0);
  linalg::DenseMatrix pts(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t c = rng.next_below(centers);
    for (std::size_t j = 0; j < d; ++j) {
      const double x = middle(c, j) + random::normal(rng, 0.0, spread);
      pts(i, j) = snapped ? std::round(x) : x;
    }
  }
  return pts;
}

TEST(KMeansSweepTest, MatchesOracleBitForBit) {
  const std::size_t dims[] = {2, 8, 32};
  std::size_t mismatches = 0;
  for (std::size_t index = 0; index < kInputs; ++index) {
    const std::size_t k = 2 + index % 39;  // 2..40
    const std::size_t d = dims[(index / 39) % 3];
    const linalg::DenseMatrix pts = sweep_points(index, d, k);
    KMeansOptions opt;
    opt.k = k;
    opt.seed = index;
    opt.restarts = 2;
    const std::string diff = test::kmeans_difference(
        kmeans(pts, opt), test::reference_kmeans(pts, opt));
    if (!diff.empty()) ++mismatches;
    EXPECT_EQ(diff, "") << "input " << index << ": n=" << pts.rows()
                        << " d=" << d << " k=" << k;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace sgp::cluster
