// Deep statistical suite: the fast guardrails from
// tests/dp/noise_statistics_test.cpp re-run at ~50× the sample size, where
// the goodness-of-fit tests have real power against subtle distributional
// drift (a biased Box–Muller tail, a correlated counter stream). Runs under
// the `slow` ctest configuration only (`ctest -C slow -L slow`). All seeds
// are fixed, so the statistics are constants of the build and the critical
// values cannot flake.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "core/projection.hpp"
#include "core/serialization.hpp"
#include "graph/generators.hpp"
#include "random/counter_rng.hpp"
#include "random/counter_rng_simd.hpp"
#include "random/kernel_variant.hpp"
#include "random/rng.hpp"
#include "../dp/stat_utils.hpp"
#include "../scenario/test_axes.hpp"
#include "../reference_publish.hpp"

namespace sgp::core {
namespace {

using namespace sgp::test_axes;  // NOLINT: axis accessors for SGP_PICK

// P[sqrt(n)·D > 1.95] ≈ 0.001 under H0 (Kolmogorov distribution).
constexpr double kKsCritical = 1.95;
// chi-square, 63 dof: P[X > 103.4] ≈ 0.001.
constexpr std::size_t kChiBins = 64;
constexpr double kChiCritical = 103.4;

TEST(DeepNoiseStatistics, MillionSampleStreamIsStandardNormal) {
  const std::size_t n = 1'000'000;
  const random::CounterRng noise = noise_counter_rng(/*seed=*/20260807);
  std::vector<double> samples(n);
  for (std::size_t t = 0; t < n; ++t) samples[t] = noise.normal(t);

  const double ks = test_stats::ks_statistic_normal(samples);
  EXPECT_LT(std::sqrt(static_cast<double>(n)) * ks, kKsCritical);
  EXPECT_LT(test_stats::chi_square_normal(samples, kChiBins), kChiCritical);

  const auto m = test_stats::moments(samples);
  EXPECT_NEAR(m.mean, 0.0, 0.004);
  EXPECT_NEAR(m.variance, 1.0, 0.006);
  EXPECT_NEAR(m.kurtosis, 3.0, 0.02);
}

TEST(DeepNoiseStatistics, DisjointCounterWindowsAreUncorrelated) {
  // Shard boundaries split the counter space into windows; any correlation
  // between windows would make shard-local noise distinguishable from the
  // in-memory stream's. Check lag correlations across a window boundary.
  const std::size_t n = 500'000;
  const random::CounterRng noise = noise_counter_rng(/*seed=*/5);
  std::uint64_t lag = 0;
  SGP_PICK(noise_lags, lag) {
    double corr = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      corr += noise.normal(t) * noise.normal(t + lag);
    }
    corr /= static_cast<double>(n);
    EXPECT_NEAR(corr, 0.0, 0.006) << "lag " << lag;
  }
}

TEST(DeepNoiseStatistics, MillionSamplePolynomialKernelIsStandardNormal) {
  // Same depth as the scalar million-sample test, but through the batch
  // polynomial kernel — the distribution of the vectorized normal mapping
  // must be indistinguishable from N(0,1) at a sample size where even a
  // 1e-3 CDF distortion (a sloppy polynomial, a biased tail) is fatal.
  const std::size_t n = 1'000'000;
  const random::CounterRng noise = noise_counter_rng(/*seed=*/20260807);
  random::KernelVariant kernel = random::KernelVariant::kGeneric;
  SGP_PICK(poly_kernel_variants, kernel) {
    if (!random::kernel_supported(kernel)) continue;
    std::vector<double> samples(n);
    random::normal_batch(noise, 0, n, samples.data(), kernel);

    const double ks = test_stats::ks_statistic_normal(samples);
    EXPECT_LT(std::sqrt(static_cast<double>(n)) * ks, kKsCritical)
        << "variant " << SGP_PICK_LABEL(kernel);
    EXPECT_LT(test_stats::chi_square_normal(samples, kChiBins), kChiCritical)
        << "variant " << SGP_PICK_LABEL(kernel);

    const auto m = test_stats::moments(samples);
    EXPECT_NEAR(m.mean, 0.0, 0.004) << "variant " << SGP_PICK_LABEL(kernel);
    EXPECT_NEAR(m.variance, 1.0, 0.006)
        << "variant " << SGP_PICK_LABEL(kernel);
    EXPECT_NEAR(m.kurtosis, 3.0, 0.02)
        << "variant " << SGP_PICK_LABEL(kernel);
  }
}

TEST(DeepNoiseStatistics, MillionSamplePolynomialTracksScalarElementwise) {
  // The |poly − libm| ≤ 1e-12 elementwise contract, at depth: a million
  // counters cover the polynomial's whole practical input range (uniforms
  // down to ~1e-6, angles across all quadrants).
  const std::size_t n = 1'000'000;
  const random::CounterRng noise = noise_counter_rng(/*seed=*/31337);
  std::vector<double> scalar(n);
  std::vector<double> poly(n);
  random::normal_batch(noise, 0, n, scalar.data(),
                       random::KernelVariant::kScalar);
  random::normal_batch(noise, 0, n, poly.data(),
                       random::KernelVariant::kGeneric);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double abs_err = std::abs(poly[i] - scalar[i]);
    const double scale = std::max(std::abs(poly[i]), std::abs(scalar[i]));
    worst = std::max(worst, scale > 0.0 ? std::min(abs_err, abs_err / scale)
                                        : abs_err);
  }
  EXPECT_LT(worst, 1e-12);
}

TEST(DeepProjectionStatistics, GaussianTileMillionEntries) {
  const std::size_t rows = 5000, m = 200;
  const linalg::DenseMatrix p = make_projection_counter(
      rows, m, ProjectionKind::kGaussian, /*seed=*/13);
  std::vector<double> scaled;
  scaled.reserve(rows * m);
  const double root_m = std::sqrt(static_cast<double>(m));
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < m; ++j) scaled.push_back(p(i, j) * root_m);
  }
  const double ks = test_stats::ks_statistic_normal(scaled);
  EXPECT_LT(std::sqrt(static_cast<double>(scaled.size())) * ks, kKsCritical);
  EXPECT_LT(test_stats::chi_square_normal(scaled, kChiBins), kChiCritical);
  const auto mom = test_stats::moments(scaled);
  EXPECT_NEAR(mom.variance, 1.0, 0.01);
  EXPECT_NEAR(mom.kurtosis, 3.0, 0.02);
}

TEST(DeepProjectionStatistics, AchlioptasFrequenciesAtMillionEntries) {
  const std::size_t rows = 5000, m = 200;
  const linalg::DenseMatrix p = make_projection_counter(
      rows, m, ProjectionKind::kAchlioptas, /*seed=*/13);
  const double scale = std::sqrt(3.0 / static_cast<double>(m));
  std::size_t zero = 0, pos = 0, neg = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double v = p(i, j);
      if (v == 0.0) {
        ++zero;
      } else if (v == scale) {
        ++pos;
      } else {
        ASSERT_EQ(v, -scale);
        ++neg;
      }
    }
  }
  const double total = static_cast<double>(rows * m);
  // 5σ bands at 1e6 samples: σ(2/3) ≈ 4.7e-4, σ(1/6) ≈ 3.7e-4.
  EXPECT_NEAR(static_cast<double>(zero) / total, 2.0 / 3.0, 0.0024);
  EXPECT_NEAR(static_cast<double>(pos) / total, 1.0 / 6.0, 0.0019);
  EXPECT_NEAR(static_cast<double>(neg) / total, 1.0 / 6.0, 0.0019);
}

TEST(DeepResidualStatistics, LargeReleaseResidualIsCalibratedNoise) {
  random::Rng rng(17);
  const graph::Graph g = graph::barabasi_albert(1200, 8, rng);
  RandomProjectionPublisher::Options opt;
  opt.projection_dim = 96;
  opt.seed = 424242;

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
