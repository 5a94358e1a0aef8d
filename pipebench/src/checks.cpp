#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/projection.hpp"
#include "core/publisher.hpp"
#include "core/serialization.hpp"
#include "random/kernel_variant.hpp"

namespace pipebench {
namespace {

namespace core = sgp::core;

// Relative tolerance on (residual std ÷ header σ) − 1. The residual std is
// estimated from |rows|·m draws; at 64 rows × m=128 its standard error is
// 0.8%, so 5% is a six-sigma margin that a shrunken or skipped
// perturbation cannot stay inside.
constexpr double kNoiseTolerance = 0.05;

// The kernel that regenerates P for a release tag — the same mapping
// core::regenerate_projection applies: the tag pins the normal transform.
sgp::random::KernelVariant kernel_for(core::ProjectionRngKind tag) {
  switch (tag) {
    case core::ProjectionRngKind::kCounterV1:
      return sgp::random::KernelVariant::kScalar;
    case core::ProjectionRngKind::kCounterV1Simd:
      return sgp::random::best_polynomial_kernel();
    case core::ProjectionRngKind::kSequentialLegacy:
      break;
  }
  throw std::runtime_error("release carries the legacy sequential P tag");
}

std::string mismatch(const char* field, double got, double want) {
  std::ostringstream msg;
  msg.precision(17);
  msg << "header: " << field << " is " << got << ", expected " << want;
  return msg.str();
}

// RMS over the sampled rows of Ỹ_i − Σ_{j∈N(i)} P_j.
double residual_rms(const core::PublishedGraph& release,
                    const ReleaseExpectation& expect) {
  const std::size_t m = release.projection_dim;
  const sgp::random::CounterRng p_rng =
      core::projection_counter_rng(expect.seed);
  const sgp::random::KernelVariant kernel = kernel_for(release.projection_rng);
  std::vector<double> sum(m);
  std::vector<double> p_row(m);
  double squares = 0.0;
  std::size_t draws = 0;
  for (const SampledRow& sampled : expect.rows) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const std::uint32_t j : sampled.neighbors) {
      core::fill_projection_tile(p_rng, m, release.projection, j, j + 1, 0, m,
                                 p_row.data(), kernel);
      for (std::size_t c = 0; c < m; ++c) sum[c] += p_row[c];
    }
    const auto row = release.data.row(sampled.row);
    for (std::size_t c = 0; c < m; ++c) {
      const double r = row[c] - sum[c];
      squares += r * r;
    }
    draws += m;
  }
  return draws == 0 ? 0.0 : std::sqrt(squares / static_cast<double>(draws));
}

}  // namespace

std::vector<SampledRow> sample_rows(const sgp::graph::Graph& g,
                                    std::size_t count) {
  std::vector<SampledRow> rows;
  const std::size_t n = g.num_nodes();
  const std::size_t stride = std::max<std::size_t>(1, n / count);
  for (std::size_t r = stride / 2; r < n && rows.size() < count;
       r += stride) {
    const auto nbrs = g.neighbors(r);
    rows.push_back({r, {nbrs.begin(), nbrs.end()}});
  }
  return rows;
}

std::uint64_t hash_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<char> buf(1 << 20);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::uint64_t length = 0;
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    length += got;
    std::size_t i = 0;
    for (; i + 8 <= got; i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, buf.data() + i, 8);
      h = (h ^ w) * 0x100000001b3ULL;
      h ^= h >> 29;
    }
    for (; i < got; ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 0x100000001b3ULL;
    }
  }
  return h ^ length;
}

std::vector<std::string> check_release(const std::string& path,
                                       const ReleaseExpectation& expect) {
  std::vector<std::string> failures;
  if (hash_file(path) != expect.file_hash) {
    failures.push_back("hash: release bytes differ from the reference");
  }
  core::PublishedGraph release;
  try {
    release = core::load_published_file(path);
  } catch (const std::exception& e) {
    failures.push_back(std::string("load: ") + e.what());
    return failures;
  }
  if (release.num_nodes != expect.num_nodes) {
    failures.push_back(mismatch("n", static_cast<double>(release.num_nodes),
                                static_cast<double>(expect.num_nodes)));
  }
  if (release.projection_dim != expect.projection_dim) {
    failures.push_back(
        mismatch("m", static_cast<double>(release.projection_dim),
                 static_cast<double>(expect.projection_dim)));
  }
  if (release.params.epsilon != expect.params.epsilon) {
    failures.push_back(
        mismatch("epsilon", release.params.epsilon, expect.params.epsilon));
  }
  if (release.params.delta != expect.params.delta) {
    failures.push_back(
        mismatch("delta", release.params.delta, expect.params.delta));
  }
  if (release.num_nodes != expect.num_nodes ||
      release.projection_dim != expect.projection_dim) {
    return failures;  // the noise audit needs the expected shape
  }
  const double sigma = release.calibration.sigma;
  double ratio = 0.0;
  try {
    ratio = residual_rms(release, expect) / sigma;
  } catch (const std::exception& e) {
    failures.push_back(std::string("noise: ") + e.what());
    return failures;
  }
  if (!(sigma > 0.0) || !(std::abs(ratio - 1.0) <= kNoiseTolerance)) {
    std::ostringstream msg;
    msg << "noise: residual std / header sigma = " << ratio << " (sigma "
        << sigma << ", tolerance " << kNoiseTolerance << ")";
    failures.push_back(msg.str());
  }
  return failures;
}

Doctor parse_doctor(const std::string& name) {
  if (name == "none") return Doctor::kNone;
  if (name == "zero-noise") return Doctor::kZeroNoise;
  if (name == "flip-byte") return Doctor::kFlipByte;
  throw std::invalid_argument("unknown --doctor mode: " + name);
}

void doctor_release(const std::string& path, Doctor mode,
                    const sgp::linalg::CsrMatrix& adjacency,
                    std::uint64_t seed) {
  if (mode == Doctor::kFlipByte) {
    const auto size = std::filesystem::file_size(path);
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const auto offset = static_cast<std::streamoff>(size - size / 4);
    char byte = 0;
    f.seekg(offset);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x10);
    f.seekp(offset);
    f.write(&byte, 1);
    if (!f) throw std::runtime_error("cannot doctor " + path);
    return;
  }
  if (mode != Doctor::kZeroNoise) return;
  core::PublishedGraph release = core::load_published_file(path);
  const std::size_t m = release.projection_dim;
  const sgp::random::CounterRng p_rng = core::projection_counter_rng(seed);
  const core::ProjectionKind kind = release.projection;
  const sgp::random::KernelVariant kernel = kernel_for(release.projection_rng);
  release.data = adjacency.multiply_generated(
      m, [&](std::size_t r0, std::size_t r1, std::size_t c0, std::size_t c1,
             double* out) {
        core::fill_projection_tile(p_rng, m, kind, r0, r1, c0, c1, out,
                                   kernel);
      });
  core::save_published_file(release, path);
}

}  // namespace pipebench
