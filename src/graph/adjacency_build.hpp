// Counting-sort adjacency assembly shared by Graph::from_edges and the shard
// loader (graph/shard_loader.hpp): one pass counts arcs per source, a second
// drops each target into its source's slot, then every row — short in a
// social graph — is sorted and de-duplicated in place. No comparison sort
// over all arcs, and no (source, target) pair array.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgp::graph::detail {

/// Per-source target lists: targets [offsets[s], offsets[s+1]) are the
/// ascending, distinct targets of source s.
struct AdjacencyRows {
  std::vector<std::size_t> offsets;    ///< size num_sources + 1
  std::vector<std::uint32_t> targets;  ///< concatenated rows
};

/// `for_each_arc(emit)` must call `emit(source, target)` for every directed
/// arc, every source < num_sources, and emit the same arcs each time it is
/// called: it runs twice, once to count and once to fill. Duplicate arcs are
/// merged.
template <typename ForEachArc>
AdjacencyRows build_adjacency(std::size_t num_sources,
                              ForEachArc&& for_each_arc) {
  AdjacencyRows rows;
  std::vector<std::size_t>& offsets = rows.offsets;
  std::vector<std::uint32_t>& targets = rows.targets;
  offsets.assign(num_sources + 1, 0);
  for_each_arc([&](std::uint32_t source, std::uint32_t) {
    ++offsets[source + 1];
  });
  for (std::size_t s = 1; s <= num_sources; ++s) offsets[s] += offsets[s - 1];
  targets.resize(offsets[num_sources]);
  // offsets[s] is source s's fill cursor; afterwards it is the end of row s.
  for_each_arc([&](std::uint32_t source, std::uint32_t target) {
    targets[offsets[source]++] = target;
  });
  std::size_t row_begin = 0;
  std::size_t kept = 0;
  for (std::size_t s = 0; s < num_sources; ++s) {
    const std::size_t row_end = offsets[s];
    const auto first = targets.begin() + static_cast<std::ptrdiff_t>(row_begin);
    const auto last = targets.begin() + static_cast<std::ptrdiff_t>(row_end);
    std::sort(first, last);
    const auto unique_end = std::unique(first, last);
    if (kept != row_begin) {  // close the gap left by earlier duplicates
      std::move(first, unique_end,
                targets.begin() + static_cast<std::ptrdiff_t>(kept));
    }
    offsets[s] = kept;
    kept += static_cast<std::size_t>(unique_end - first);
    row_begin = row_end;
  }
  offsets[num_sources] = kept;
  if (kept < targets.size()) {
    targets.resize(kept);
    targets.shrink_to_fit();
  }
  return rows;
}

}  // namespace sgp::graph::detail
