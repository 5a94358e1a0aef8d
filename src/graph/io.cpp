#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "util/check.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"

namespace sgp::graph {
namespace {

[[noreturn]] void parse_fail(std::size_t line_no, const std::string& why) {
  throw util::ParseError("edge list: line " + std::to_string(line_no) + ": " +
                         why);
}

/// What a blank line, and the tail after the second id, may consist of.
bool is_line_blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

/// What `operator>>` skips before a number in the classic locale: the six
/// isspace characters, so '\v' and '\f' too (a line never holds '\n').
bool is_stream_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Reads one id from [p, end) exactly as `std::istream >> std::uint64_t`
/// does in the classic locale: leading isspace skipped, an optional sign,
/// decimal digits; '-' negates modulo 2^64 and overflow fails. Returns the
/// first byte after the digits, or nullptr if no id could be read.
const char* parse_id(const char* p, const char* end, std::uint64_t& out) {
  while (p != end && is_stream_space(*p)) ++p;
  const bool negative = p != end && *p == '-';
  if (p != end && (*p == '+' || *p == '-')) ++p;
  std::uint64_t value = 0;
  const auto [after, ec] = std::from_chars(p, end, value);
  if (ec != std::errc()) return nullptr;
  out = negative ? 0 - value : value;
  return after;
}

/// Our own writer declares the node count in a comment ("... : <N> nodes
/// ..."); `text` is what follows the '#'. Rare, so the word splitting stays
/// on istringstream.
void read_header(const std::string& text, std::size_t line_no,
                 std::uint64_t id_cap, EdgeScanStats& stats) {
  std::istringstream header(text);
  std::string word;
  std::size_t count = 0;
  while (header >> word) {
    if (word == "nodes" || word == "nodes,") break;
    std::istringstream num(word);
    std::size_t candidate = 0;
    if (num >> candidate && num.eof()) count = candidate;
  }
  if (word == "nodes" || word == "nodes,") {
    // A lying header is as dangerous as a hostile id: it sizes the node
    // arrays directly.
    if (count > id_cap + 1) {
      parse_fail(line_no, "header declares " + std::to_string(count) +
                              " nodes, above the preserve-policy cap of " +
                              std::to_string(id_cap + 1));
    }
    stats.declared_nodes = std::max(stats.declared_nodes, count);
  }
}

}  // namespace

EdgeScanStats scan_edge_list(
    std::istream& in, IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint64_t, std::uint64_t)>& on_edge) {
  // The id type caps preserved ids at 2^32 - 1 regardless of the caller's
  // configured limit.
  const std::uint64_t id_cap =
      std::min<std::uint64_t>(max_preserved_id, 0xFFFFFFFFULL);

  EdgeScanStats stats;
  std::size_t line_no = 0;

  // One line, without its '\n'.
  const auto scan_line = [&](const char* p, const char* end) {
    ++line_no;
    if (const auto* hash = static_cast<const char*>(
            std::memchr(p, '#', static_cast<std::size_t>(end - p)))) {
      // Honored under kPreserve so trailing isolated nodes survive a round
      // trip.
      if (policy == IdPolicy::kPreserve) {
        read_header(std::string(hash + 1, end), line_no, id_cap, stats);
      }
      end = hash;
    }
    if (std::all_of(p, end, is_line_blank)) return;  // blank or comment-only
    std::uint64_t u_raw = 0;
    std::uint64_t v_raw = 0;
    p = parse_id(p, end, u_raw);
    if (p == nullptr) parse_fail(line_no, "expected a numeric node id");
    p = parse_id(p, end, v_raw);
    if (p == nullptr) parse_fail(line_no, "expected two node ids, got one");
    // Reject anything after the second id that is not whitespace — a third
    // field, stray NUL bytes, or binary garbage all indicate a format the
    // caller did not intend to feed us.
    if (!std::all_of(p, end, is_line_blank)) {
      parse_fail(line_no, "unexpected trailing content after the two ids");
    }
    if (u_raw == v_raw) return;  // drop self loop
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
  };

  // Lines are cut out of fixed-size blocks; an unfinished line moves to the
  // front of the buffer and the next block is read behind it (the buffer
  // grows only for a line longer than one block).
  std::vector<char> buf(kEdgeScanChunkBytes);
  std::size_t carry = 0;
  for (;;) {
    buf.resize(carry + kEdgeScanChunkBytes);
    in.read(buf.data() + carry,
            static_cast<std::streamsize>(kEdgeScanChunkBytes));
    const auto got = static_cast<std::size_t>(in.gcount());
    const char* line = buf.data();
    const char* const end = buf.data() + carry + got;
    const char* search = buf.data() + carry;  // the carry holds no '\n'
    while (const auto* nl = static_cast<const char*>(std::memchr(
               search, '\n', static_cast<std::size_t>(end - search)))) {
      scan_line(line, nl);
      line = search = nl + 1;
    }
    carry = static_cast<std::size_t>(end - line);
    std::memmove(buf.data(), line, carry);
    if (got < kEdgeScanChunkBytes) break;  // end of stream, or an error
  }
  if (in.bad()) {
    throw util::IoError("edge list: stream read error at line " +
                        std::to_string(line_no));
  }
  if (carry > 0) scan_line(buf.data(), buf.data() + carry);  // no final '\n'
  stats.lines = line_no;
  // One bulk add per pass, not one per line — keeps the loop clean.
  static obs::Counter& lines_read = obs::counter(obs::names::kIoLinesRead);
  static obs::Counter& edges_read = obs::counter(obs::names::kIoEdgesRead);
  lines_read.add(stats.lines);
  edges_read.add(stats.edge_records);
  return stats;
}

std::size_t scan_edge_list_resolved(
    std::istream& in, IdPolicy policy, std::uint64_t max_preserved_id,
    const std::function<void(std::uint32_t, std::uint32_t)>& on_edge) {
  std::unordered_map<std::uint64_t, std::uint32_t> remap;
  const auto intern = [&](std::uint64_t raw) -> std::uint32_t {
    if (policy == IdPolicy::kPreserve) {
      return static_cast<std::uint32_t>(raw);  // cap enforced by the scan
    }
    return remap.try_emplace(raw, static_cast<std::uint32_t>(remap.size()))
        .first->second;
  };
  const EdgeScanStats stats = scan_edge_list(
      in, policy, max_preserved_id,
      [&](std::uint64_t u_raw, std::uint64_t v_raw) {
        const std::uint32_t u = intern(u_raw);  // u first: ids follow
        const std::uint32_t v = intern(v_raw);  // first appearance
        on_edge(u, v);
      });
  if (policy == IdPolicy::kCompact) return remap.size();
  const std::size_t num_nodes =
      stats.edge_records > 0 ? static_cast<std::size_t>(stats.max_raw_id) + 1
                             : 0;
  return std::max(num_nodes, stats.declared_nodes);
}

Graph read_edge_list(std::istream& in, IdPolicy policy,
                     std::uint64_t max_preserved_id) {
  util::fault_point(util::fault_points::kIoRead);
  obs::ScopedTimer timer(obs::names::kIoReadEdges);

  std::vector<Edge> edges;
  const std::size_t num_nodes = scan_edge_list_resolved(
      in, policy, max_preserved_id,
      [&](std::uint32_t u, std::uint32_t v) { edges.push_back({u, v}); });
  timer.attr("nodes", num_nodes).attr("edges", edges.size());
  return Graph::from_edges(num_nodes, edges);
}

Graph read_edge_list_file(const std::string& path, IdPolicy policy,
                          std::uint64_t max_preserved_id) {
  std::ifstream in(path);
  if (!in.good()) {
    throw util::IoError("cannot open edge list file: " + path);
  }
  return read_edge_list(in, policy, max_preserved_id);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  util::fault_point(util::fault_points::kIoWrite);
  obs::ScopedTimer timer(obs::names::kIoWriteEdges);
  timer.attr("nodes", g.num_nodes()).attr("edges", g.num_edges());
  out << "# sgp edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v << '\n';
  }
  static obs::Counter& edges_written = obs::counter(obs::names::kIoEdgesWritten);
  edges_written.add(g.num_edges());
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) {
    throw util::IoError("cannot open output file: " + path);
  }
  write_edge_list(g, out);
  out.flush();
  if (!out.good()) {
    throw util::IoError("failed writing edge list to: " + path);
  }
}

}  // namespace sgp::graph
