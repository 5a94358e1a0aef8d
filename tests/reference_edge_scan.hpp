// Independent reference edge-list scanner for the grammar differential test.
//
// The library scans edge lists in fixed-size blocks with memchr and
// std::from_chars (graph/io.cpp). This is deliberately *not* that scanner:
// it is the line-at-a-time getline/istringstream scanner the library used
// before, kept unchanged, whose behaviour defines the edge-list grammar —
// which lines are accepted, which ids come back (including what
// `operator>>` does with signs and vertical whitespace), the EdgeScanStats
// and the exact error messages. The block scanner must reproduce all of it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <istream>
#include <sstream>
#include <string>

#include "graph/io.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/errors.hpp"

namespace sgp::test {
namespace reference_edge_scan_detail {

constexpr const char* kLineWhitespace = " \t\r";

[[noreturn]] inline void parse_fail(std::size_t line_no,
                                    const std::string& why) {
  throw util::ParseError("edge list: line " + std::to_string(line_no) + ": " +
                         why);
}

}  // namespace reference_edge_scan_detail

/// Same contract as graph::scan_edge_list.
inline graph::EdgeScanStats reference_scan_edge_list(
    std::istream& in, graph::IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_edge) {
  using graph::EdgeScanStats;
  using graph::IdPolicy;
  using reference_edge_scan_detail::kLineWhitespace;
  using reference_edge_scan_detail::parse_fail;

  // The id type caps preserved ids at 2^32 - 1 regardless of the caller's
  // configured limit.
  const std::uint64_t id_cap =
      std::min<std::uint64_t>(max_preserved_id, 0xFFFFFFFFULL);

  EdgeScanStats stats;
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(in, line)) {
    ++line_no;
    // Our own writer declares the node count in a comment; honor it under
    // kPreserve so trailing isolated nodes survive a round trip.
    const auto hash = line.find('#');
    if (hash != std::string::npos) {
      if (policy == IdPolicy::kPreserve) {
        std::istringstream header(line.substr(hash + 1));
        std::string word;
        std::size_t count = 0;
        // Matches "... : <N> nodes ..." from write_edge_list.
        while (header >> word) {
          if (word == "nodes" || word == "nodes,") break;
          std::istringstream num(word);
          std::size_t candidate = 0;
          if (num >> candidate && num.eof()) count = candidate;
        }
        if (word == "nodes" || word == "nodes,") {
          // A lying header is as dangerous as a hostile id: it sizes the
          // node arrays directly.
          if (count > id_cap + 1) {
            parse_fail(line_no,
                       "header declares " + std::to_string(count) +
                           " nodes, above the preserve-policy cap of " +
                           std::to_string(id_cap + 1));
          }
          stats.declared_nodes = std::max(stats.declared_nodes, count);
        }
      }
      line.erase(hash);
    }
    if (line.find_first_not_of(kLineWhitespace) == std::string::npos) {
      continue;  // blank or comment-only line
    }
    std::istringstream fields(line);
    std::uint64_t u_raw, v_raw;
    if (!(fields >> u_raw)) {
      parse_fail(line_no, "expected a numeric node id");
    }
    if (!(fields >> v_raw)) {
      parse_fail(line_no, "expected two node ids, got one");
    }
    // Reject anything after the second id that is not whitespace — a third
    // field, stray NUL bytes, or binary garbage all indicate a format the
    // caller did not intend to feed us.
    fields.clear();
    std::string trailing;
    std::getline(fields, trailing);
    if (trailing.find_first_not_of(kLineWhitespace) != std::string::npos) {
      parse_fail(line_no, "unexpected trailing content after the two ids");
    }
    if (u_raw == v_raw) continue;  // drop self loop
    if (policy == IdPolicy::kPreserve) {
      const std::uint64_t hi = std::max(u_raw, v_raw);
      if (hi > id_cap) {
        parse_fail(line_no, "node id " + std::to_string(hi) +
                                " exceeds the preserve-policy cap of " +
                                std::to_string(id_cap));
      }
      stats.max_raw_id = std::max(stats.max_raw_id, hi);
    }
    ++stats.edge_records;
    on_edge(u_raw, v_raw);
  }
  if (in.bad()) {
    throw util::IoError("edge list: stream read error at line " +
                        std::to_string(line_no));
  }
  stats.lines = line_no;
  // One bulk add per pass, not one per line — keeps the loop clean.
  static obs::Counter& lines_read = obs::counter(obs::names::kIoLinesRead);
  static obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
  lines_read.add(stats.lines);
  edges_read.add(stats.edge_records);
  return stats;
}

}  // namespace sgp::test
