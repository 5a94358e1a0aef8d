// R8 silent: the encoder callers hold visible privacy context and the
// privacy value comes from dp/.
#include "core/serialization.hpp"

namespace sgp::core {

void emit_release(std::ostream& os, const dp::PrivacyParams& params,
                  const std::vector<double>& rows) {
  params.validate();
  write_published_header(os, rows.size());
  write_published_doubles(os, rows);
}

double calibrated(const dp::PrivacyParams& params) {
  const double sigma = dp::analytic_gaussian_sigma(params);
  return sigma;
}

}  // namespace sgp::core

namespace sgp::core {

// Clause (c) silent forms: a split routed through dp/, and plain
// propagation with no literal arithmetic.
double split_via_dp(const dp::PrivacyParams& params) {
  const double epsilon_head = dp::split_budget(params, 0.5).partition.epsilon;
  return epsilon_head;
}

double propagate(const dp::PrivacyParams& params) {
  const double epsilon_copy = params.epsilon;
  return epsilon_copy;
}

}  // namespace sgp::core

namespace sgp::core {

// Clause (d) silent forms: the declaration and the definition are not
// calls (only core::calibrate in src/core/publisher.cpp may call it).
NoiseCalibration calibrate_noise(std::size_t m, const dp::PrivacyParams& params);

NoiseCalibration calibrate_noise(std::size_t m, const dp::PrivacyParams& params) {
  params.validate();
  return {};
}

}  // namespace sgp::core
