// Correctness checks run on every release a pass produces or reads, and the
// doctoring the self-test uses to prove those checks can fail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "dp/privacy.hpp"
#include "graph/graph.hpp"
#include "linalg/sparse_matrix.hpp"

namespace pipebench {

/// A release row whose noise is audited, with its neighbor list in the
/// release's own node numbering.
struct SampledRow {
  std::size_t row = 0;
  std::vector<std::uint32_t> neighbors;
};

/// What a release must look like, fixed in set-up.
struct ReleaseExpectation {
  std::size_t num_nodes = 0;
  std::size_t projection_dim = 0;
  sgp::dp::PrivacyParams params;
  std::uint64_t seed = 0;       ///< publisher seed, set explicitly
  std::uint64_t file_hash = 0;  ///< hash of the reference release bytes
  std::vector<SampledRow> rows;
};

/// Rows audited by the noise check: `count` rows at a fixed stride.
[[nodiscard]] std::vector<SampledRow> sample_rows(const sgp::graph::Graph& g,
                                                  std::size_t count);

/// 64-bit hash of a file's bytes.
[[nodiscard]] std::uint64_t hash_file(const std::string& path);

/// Checks a release file against `expect`:
///  - "hash": the bytes equal the reference release's;
///  - "header": n, m, ε and δ match the inputs;
///  - "noise": on the sampled rows, std(Ỹ_i − Σ_{j∈N(i)} P_j) is within
///    5% of the header σ, with P regenerated through
///    core::fill_projection_tile.
/// Returns one message per failed check; empty when the release passes.
[[nodiscard]] std::vector<std::string> check_release(
    const std::string& path, const ReleaseExpectation& expect);

enum class Doctor { kNone, kZeroNoise, kFlipByte };

/// Parses "none" / "zero-noise" / "flip-byte"; throws on anything else.
[[nodiscard]] Doctor parse_doctor(const std::string& name);

/// Rewrites a release file the way a faulty publisher would:
///  - kZeroNoise replaces Ỹ with the noiseless A·P (header unchanged);
///  - kFlipByte flips one bit in the middle of the payload.
/// `adjacency` is the matrix the release was published from.
void doctor_release(const std::string& path, Doctor mode,
                    const sgp::linalg::CsrMatrix& adjacency,
                    std::uint64_t seed);

}  // namespace pipebench
