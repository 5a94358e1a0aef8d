// Independent reference publisher for the differential suites.
//
// The library publishes through one row-block kernel (core::publish_rows).
// This is deliberately *not* that kernel: it computes each release row on
// its own, straight from the formula
//   Ỹ_i = Σ_{j∈N(i)} P_j + σ·N_i,
// regenerating P_j once per edge endpoint and visiting neighbors in
// ascending order — the accumulation order the kernel promises. Every
// publish mode must reproduce these bytes exactly, so a kernel change that
// reorders a sum or skips a source shows up as a byte difference here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "core/projection.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "core/theory.hpp"
#include "graph/graph.hpp"
#include "random/counter_rng.hpp"
#include "random/counter_rng_simd.hpp"
#include "random/kernel_variant.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"

namespace sgp::test {

/// Writes the release of `g` under `options` (header + payload) row by row,
/// in O(m) working memory.
inline void reference_publish(const graph::Graph& g,
                              const core::RandomProjectionPublisher::Options&
                                  options,
                              std::ostream& out) {
  const std::size_t n = g.num_nodes();
  const std::size_t m = options.projection_dim;
  util::require(n >= 1, "reference_publish: graph must have nodes");
  util::require(m >= 1 && m <= n,
                "reference_publish: projection_dim must be in [1, n]");
  options.params.validate();

  const random::CounterRng p_rng = core::projection_counter_rng(options.seed);
  const random::CounterRng noise = core::noise_counter_rng(options.seed);
  const random::KernelVariant kernel =
      random::resolve_normal_kernel(options.kernel);

  const core::NoiseCalibration calibration = core::calibrate_noise(
      m, options.params, options.analytic_calibration, options.delta_split);
  core::write_published_header(
      out, n, m, options.params, calibration, options.projection,
      core::projection_rng_for(options.projection, kernel));

  std::vector<double> row(m);
  std::vector<double> prow(m);
  std::vector<double> draws(m);
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(row.begin(), row.end(), 0.0);
    for (std::uint32_t j : g.neighbors(i)) {
      core::fill_projection_tile(p_rng, m, options.projection, j, j + 1, 0, m,
                                 prow.data(), kernel);
      for (std::size_t c = 0; c < m; ++c) row[c] += prow[c];
    }
    const std::uint64_t base = static_cast<std::uint64_t>(i) * m;
    random::normal_batch(noise, base, m, draws.data(), kernel);
    for (std::size_t c = 0; c < m; ++c) {
      row[c] += calibration.sigma * draws[c];
    }
    core::write_published_doubles(out, row);
  }
  if (!out.good()) {
    throw util::IoError("reference_publish: stream write failed");
  }
}

}  // namespace sgp::test
