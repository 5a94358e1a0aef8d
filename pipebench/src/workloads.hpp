// The three benchmark workloads. Each drives libsgp through its public
// functions only; the benchmark times the calls from outside.
//
//   publish-inmem-ba100k   parse → CSR → fused publish → save
//   publish-sharded-ba100k shard scan → publish_sharded (4 × 25,000 rows)
//   analyze-ljsim50k       load → spectral embedding → k-means → ranking
//
// README.md in this directory records why each workload is in the set and
// which end-to-end metric each layer is expected to move.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "probe.hpp"

namespace pipebench {

struct WorkloadConfig {
  std::string name;
  std::uint64_t seed = 1;
  /// Self-test size (n≈2k–5k) instead of the reference size.
  bool tiny = false;
  /// Scratch directory for the graph file and releases.
  std::string workdir;
};

/// Input sizes a traced pass needs to turn layer times into rates.
struct WorkloadFacts {
  double edge_records = 0.0;  ///< edge lines in the input file (0: no file)
  double nnz = 0.0;           ///< nonzeros of the projected matrix A
  double projection_dim = 0.0;
  double release_bytes = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs and the reference release. Each call redoes all
  /// of it, so set-up can be timed more than once.
  virtual void setup() = 0;

  /// One pass: the library calls, each wrapped as a layer span.
  virtual void pass(SpanRecorder& spans) = 0;

  /// Checks what the last pass produced or read; one message per failure.
  [[nodiscard]] virtual std::vector<std::string> check() = 0;

  /// Doctors the release the next check sees (self-test only).
  virtual void doctor(Doctor mode) = 0;

  /// Removes the last pass's outputs.
  virtual void end_pass() {}

  [[nodiscard]] virtual WorkloadFacts facts() const = 0;
};

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const WorkloadConfig& config);

}  // namespace pipebench
