// Statistical guardrails on the mechanism's randomness: the perturbation
// stream must actually be N(0, σ²) and generated projection tiles must have
// the JL moments the privacy/utility proofs assume. These are the fast
// fixed-seed versions; tests/slow/statistical_deep_test.cpp re-runs them at
// 50× the sample size under the `slow` ctest configuration.
//
// Every test is deterministic (counter RNG + fixed seeds), so the hard-coded
// critical values cannot flake: a failure means the generated distribution
// itself changed — a silent privacy regression, the exact thing this suite
// exists to catch.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "core/projection.hpp"
#include "core/serialization.hpp"
#include "core/theory.hpp"
#include "graph/generators.hpp"
#include "random/counter_rng.hpp"
#include "random/rng.hpp"
#include "stat_utils.hpp"
#include "../reference_publish.hpp"

namespace sgp::core {
namespace {

// KS bound: sqrt(n)·D_n has the Kolmogorov distribution under H0;
// P[sqrt(n)·D > 1.95] ≈ 0.001. The deterministic fixed-seed statistic sits
// far below; a stream regression pushes it far above.
constexpr double kKsCritical = 1.95;
// chi-square with 31 dof: P[X > 61.1] ≈ 0.001.
constexpr std::size_t kChiBins = 32;
constexpr double kChiCritical = 61.1;

TEST(NoiseStatistics, NoiseStreamIsStandardNormalAfterScaling) {
  const std::size_t n = 20000;
  const random::CounterRng noise = noise_counter_rng(/*seed=*/97);
  const NoiseCalibration cal = calibrate_noise(64, {1.0, 1e-6});
  std::vector<double> samples(n);
  for (std::size_t t = 0; t < n; ++t) {
    // What the publisher adds, rescaled by the σ it used.
    samples[t] = cal.sigma * noise.normal(t) / cal.sigma;
  }
  const double ks = test_stats::ks_statistic_normal(samples);
  EXPECT_LT(std::sqrt(static_cast<double>(n)) * ks, kKsCritical);
  EXPECT_LT(test_stats::chi_square_normal(samples, kChiBins), kChiCritical);

  const auto m = test_stats::moments(samples);
  EXPECT_NEAR(m.mean, 0.0, 0.02);
  EXPECT_NEAR(m.variance, 1.0, 0.05);
  EXPECT_NEAR(m.kurtosis, 3.0, 0.15);
}

TEST(NoiseStatistics, NoiseAndProjectionStreamsAreIndependent) {
  // Same counters, different stream ids: correlation must vanish.
  const std::size_t n = 20000;
  const random::CounterRng p = projection_counter_rng(/*seed=*/97);
  const random::CounterRng noise = noise_counter_rng(/*seed=*/97);
  double corr = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    corr += p.normal(t) * noise.normal(t);
  }
  corr /= static_cast<double>(n);
  // Var of the product mean is ~1/n; 4σ ≈ 0.028.
  EXPECT_NEAR(corr, 0.0, 0.03);
}

TEST(ProjectionStatistics, GaussianTileHasJlMoments) {
  // Entries of a Gaussian projection are N(0, 1/m): after scaling by
  // sqrt(m) they are standard normal.
  const std::size_t rows = 400, m = 50;
  const linalg::DenseMatrix p =
      make_projection_counter(rows, m, ProjectionKind::kGaussian, /*seed=*/7);
  std::vector<double> scaled;
  scaled.reserve(rows * m);
  const double root_m = std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < m; ++j) scaled.push_back(p(i, j) * root_m);
  }
  const double ks = test_stats::ks_statistic_normal(scaled);
  EXPECT_LT(std::sqrt(static_cast<double>(scaled.size())) * ks, kKsCritical);

  const auto mom = test_stats::moments(scaled);
  EXPECT_NEAR(mom.mean, 0.0, 0.02);
  EXPECT_NEAR(mom.variance, 1.0, 0.05);
}

TEST(ProjectionStatistics, AchlioptasTileHasSparseSupportAndJlVariance) {
  const std::size_t rows = 400, m = 50;
  const linalg::DenseMatrix p = make_projection_counter(
      rows, m, ProjectionKind::kAchlioptas, /*seed=*/7);
  const double scale = std::sqrt(3.0 / static_cast<double>(m));
  std::size_t zero = 0, pos = 0, neg = 0;
  double second_moment = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double v = p(i, j);
      second_moment += v * v;
      if (v == 0.0) {
        ++zero;
      } else if (v == scale) {
        ++pos;
      } else {
        ASSERT_EQ(v, -scale) << "entry outside the ±sqrt(3/m)/0 support";
        ++neg;
      }
    }
  }
  const double total = static_cast<double>(rows * m);
  // P(0) = 2/3, P(±scale) = 1/6 each; 4σ bands at 20k samples.
  EXPECT_NEAR(static_cast<double>(zero) / total, 2.0 / 3.0, 0.015);
  EXPECT_NEAR(static_cast<double>(pos) / total, 1.0 / 6.0, 0.012);
  EXPECT_NEAR(static_cast<double>(neg) / total, 1.0 / 6.0, 0.012);
  // E[v²] = 1/m, the JL normalization.
  EXPECT_NEAR(second_moment / total, 1.0 / static_cast<double>(m), 0.002);
}

TEST(PublishedResidualStatistics, ReleaseMinusProjectionIsCalibratedNoise) {
  // End-to-end: Ỹ − A·P, scaled by 1/σ, must be standard normal. This ties
  // the serialized release to the exact σ and noise stream it claims.
  random::Rng rng(11);
  const graph::Graph g = graph::erdos_renyi(120, 0.1, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 40;
  opt.seed = 77;

  std::ostringstream stream(std::ios::binary);
  test::reference_publish(g, opt, stream);
  std::istringstream in(stream.str(), std::ios::binary);
  const PublishedGraph pub = load_published(in);

  const linalg::DenseMatrix p = make_projection_counter(
      g.num_nodes(), opt.projection_dim, opt.projection, opt.seed);
  const linalg::DenseMatrix y = g.adjacency_matrix().multiply_dense(p);

  std::vector<double> residuals;
  residuals.reserve(g.num_nodes() * opt.projection_dim);
  for (std::size_t i = 0; i < g.num_nodes(); ++i) {
    for (std::size_t j = 0; j < opt.projection_dim; ++j) {
      residuals.push_back((pub.data(i, j) - y(i, j)) / pub.calibration.sigma);
    }
  }
  const double ks = test_stats::ks_statistic_normal(residuals);
  EXPECT_LT(std::sqrt(static_cast<double>(residuals.size())) * ks,
            kKsCritical);
  EXPECT_LT(test_stats::chi_square_normal(residuals, kChiBins), kChiCritical);
}

}  // namespace
}  // namespace sgp::core
