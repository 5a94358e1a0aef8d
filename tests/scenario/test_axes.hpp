// Shared product-set axes for the migrated differential/statistical suites.
//
// These axes replace the hand-rolled nested loops that used to live inside
// tests/slow/differential_matrix_test.cpp,
// tests/integration/kernel_differential_test.cpp and
// tests/slow/statistical_deep_test.cpp. Declaring them once here keeps the
// coverage inspectable: tests/scenario/migration_pin_test.cpp pins the exact
// cell counts (and option values) the hand-rolled loops had, so a migration
// can never silently shrink a matrix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "core/scenario.hpp"
#include "random/kernel_variant.hpp"

namespace sgp::test_axes {

/// (shard_rows, threads) pairs — SGP_PARAMETERIZE is a macro, so the pair
/// type needs a comma-free name.
using ShardThread = std::pair<std::size_t, std::size_t>;

/// Node count of the slow differential matrix graphs (the `n` in the
/// single-shard option of the shard-height axis).
inline constexpr std::size_t kDiffNodes = 700;

// --- tests/slow/differential_matrix_test.cpp ------------------------------

// Shard heights: row-per-shard, ragged odd size, a round block, and
// single-shard (= the whole graph).
SGP_PARAMETERIZE(diff_shard_rows, std::size_t, rows,
    SGP_OPTION(rows, 1);
    SGP_OPTION(rows, 7);
    SGP_OPTION(rows, 64);
    SGP_OPTION_LABELED(rows, "700", kDiffNodes);
)

SGP_PARAMETERIZE(diff_threads, std::size_t, threads,
    SGP_OPTION(threads, 1);
    SGP_OPTION(threads, 2);
    SGP_OPTION(threads, 8);
)

// Kernel axis of the slow matrix: every variant crossed with shard height ×
// thread count. Unsupported variants skip at runtime; the axis still lists
// them so the coverage contract is machine-checkable.
SGP_PARAMETERIZE(kernel_variants, sgp::random::KernelVariant, kernel,
    SGP_OPTION_LABELED(kernel, "scalar", sgp::random::KernelVariant::kScalar);
    SGP_OPTION_LABELED(kernel, "generic",
                       sgp::random::KernelVariant::kGeneric);
    SGP_OPTION_LABELED(kernel, "avx2", sgp::random::KernelVariant::kAvx2);
    SGP_OPTION_LABELED(kernel, "avx512", sgp::random::KernelVariant::kAvx512);
)

SGP_PARAMETERIZE(kernel_matrix_shard_rows, std::size_t, rows,
    SGP_OPTION(rows, 7);
    SGP_OPTION(rows, 64);
    SGP_OPTION_LABELED(rows, "700", kDiffNodes);
)

SGP_PARAMETERIZE(kernel_matrix_threads, std::size_t, threads,
    SGP_OPTION(threads, 1);
    SGP_OPTION(threads, 8);
)

SGP_PARAMETERIZE(compact_shard_rows, std::size_t, rows,
    SGP_OPTION(rows, 1);
    SGP_OPTION(rows, 17);
    SGP_OPTION(rows, 300);
)

// --- tests/integration/kernel_differential_test.cpp -----------------------

// The tier-1 representative slice of the shard×thread sweep: ragged
// single-threaded, mid-size multi-threaded, and default-height (0 = let the
// planner choose) at higher parallelism.
SGP_PARAMETERIZE(kernel_diff_shard_thread, sgp::test_axes::ShardThread, cell,
    SGP_OPTION_LABELED(cell, "s7t1", sgp::test_axes::ShardThread{7, 1});
    SGP_OPTION_LABELED(cell, "s16t3", sgp::test_axes::ShardThread{16, 3});
    SGP_OPTION_LABELED(cell, "s0t4", sgp::test_axes::ShardThread{0, 4});
)

// --- tests/slow/statistical_deep_test.cpp ---------------------------------

// Polynomial (batch) kernel variants — scalar is the reference, not a cell.
SGP_PARAMETERIZE(poly_kernel_variants, sgp::random::KernelVariant, kernel,
    SGP_OPTION_LABELED(kernel, "generic",
                       sgp::random::KernelVariant::kGeneric);
    SGP_OPTION_LABELED(kernel, "avx2", sgp::random::KernelVariant::kAvx2);
    SGP_OPTION_LABELED(kernel, "avx512", sgp::random::KernelVariant::kAvx512);
)

// Counter-window lags for the cross-window correlation check.
SGP_PARAMETERIZE(noise_lags, std::uint64_t, lag,
    SGP_OPTION(lag, 1);
    SGP_OPTION(lag, 64);
    SGP_OPTION(lag, 4096);
)

}  // namespace sgp::test_axes
