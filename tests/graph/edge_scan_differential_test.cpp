// Grammar differential test: the block scanner (graph::scan_edge_list) must
// accept and reject exactly what the line-at-a-time reference scanner
// (tests/reference_edge_scan.hpp) does, hand back the same ids in the same
// order, report the same EdgeScanStats and throw the same exception type
// with the same message — under both id policies, on hostile input, and on
// lines that straddle or exceed one read block.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <sstream>
#include <streambuf>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "../reference_edge_scan.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "util/errors.hpp"

namespace sgp::graph {
namespace {

struct ScanOutcome {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> edges;
  EdgeScanStats stats;
  std::string error;  ///< "<exception type>: <what()>", empty if none
};

template <typename Scan>
ScanOutcome run_scan(const Scan& scan, const std::string& text,
                     IdPolicy policy, std::uint64_t max_preserved_id) {
  std::istringstream in(text);
  ScanOutcome out;
  try {
    out.stats = scan(in, policy, max_preserved_id,
                     [&](std::uint64_t u, std::uint64_t v) {
                       out.edges.emplace_back(u, v);
                     });
  } catch (const std::exception& e) {
    out.error = std::string(typeid(e).name()) + ": " + e.what();
  }
  return out;
}

std::string printable(const std::string& text) {
  if (text.size() > 80) {
    return "<" + std::to_string(text.size()) + " bytes>";
  }
  std::string out;
  for (const char c : text) {
    if (c >= 0x20 && c < 0x7f) {
      out += c;
    } else {
      out += "\\x" + std::to_string(static_cast<unsigned char>(c));
    }
  }
  return out;
}

/// Both scanners, both policies, the default and a small preserve cap.
void expect_same_grammar(const std::string& text) {
  const auto block = [](auto&&... args) {
    return scan_edge_list(std::forward<decltype(args)>(args)...);
  };
  const auto reference = [](auto&&... args) {
    return test::reference_scan_edge_list(
        std::forward<decltype(args)>(args)...);
  };
  for (const IdPolicy policy : {IdPolicy::kCompact, IdPolicy::kPreserve}) {
    for (const std::uint64_t cap : {kDefaultMaxPreservedNodeId,
                                    std::uint64_t{5}}) {
      SCOPED_TRACE("input \"" + printable(text) + "\", policy " +
                   (policy == IdPolicy::kCompact ? "compact" : "preserve") +
                   ", cap " + std::to_string(cap));
      const ScanOutcome want = run_scan(reference, text, policy, cap);
      const ScanOutcome got = run_scan(block, text, policy, cap);
      ASSERT_EQ(got.error, want.error);
      ASSERT_EQ(got.edges, want.edges);
      EXPECT_EQ(got.stats.lines, want.stats.lines);
      EXPECT_EQ(got.stats.edge_records, want.stats.edge_records);
      EXPECT_EQ(got.stats.max_raw_id, want.stats.max_raw_id);
      EXPECT_EQ(got.stats.declared_nodes, want.stats.declared_nodes);
    }
  }
}

class EdgeScanGrammar : public testing::TestWithParam<std::string> {};

TEST_P(EdgeScanGrammar, BlockScannerMatchesReference) {
  expect_same_grammar(GetParam());
}

// The strings of the EdgeListFuzz suite (integration/failure_injection).
INSTANTIATE_TEST_SUITE_P(
    FuzzStrings, EdgeScanGrammar,
    testing::Values("", "\n\n\n", "0", "0 1 2", "a b", "0 a",
                    "99999999999999999999999 1", "-1 2", "0 1\n1",
                    "0 1\nxyzzy", "# only\n# comments", "0 0\n0 0\n0 0",
                    "1 2 # ok\n3", "\t \t", "0\t1\n2\t3",
                    std::string("4294967295 1"), std::string("4294967296 1"),
                    std::string("2147483648 0"),
                    std::string("18446744073709551615 1"),
                    std::string("0 99999999999999999999"),
                    std::string("0 1\0 2\n3 4\n", 12),
                    std::string("\0\0\n0 1\n", 7),
                    std::string("0 1\r\n2 3\r\n"), std::string("0 1\r\r\n"),
                    std::string(
                        "# sgp edge list: 99999999999 nodes, 1 edges\n0 1\n"),
                    std::string(
                        "# sgp edge list: 4294967297 nodes, 1 edges\n0 1\n"),
                    std::string("# sgp edge list: -7 nodes, 1 edges\n0 1\n"),
                    std::string(
                        "# sgp edge list: twelve nodes, 1 edges\n0 1\n"),
                    std::string(
                        "0 1\n# sgp edge list: 2147483650 nodes, 0 edges\n")));

// What `operator>>` makes of signs, radix prefixes, decimal points and
// vertical whitespace — the corners a from_chars parser could get wrong.
INSTANTIATE_TEST_SUITE_P(
    GrammarProbe, EdgeScanGrammar,
    testing::Values(
        "-1 2", "+1 2", "1 +2", "1 -2", "-0 1", "+0 1", "- 1 2", "+ 1 2",
        "+-1 2", "--1 2", "1+2", "1-2", "1 2+", "1 2-", "+", "-", "1 +",
        "1 -", "007 08", "00 0001", "0x1 2", "1 0x2", "1.5 2", "1 2.5",
        ".5 1", "1e3 2", "18446744073709551615 18446744073709551614",
        "18446744073709551616 1", "1 18446744073709551616",
        "-18446744073709551615 1", "-18446744073709551616 1",
        "-4 4294967292", "\v1 2", "\f1 2", "1\v2", "1\f2", "1 2\v", "1 2\f",
        "1 \v 2", "\v", "\f", "\v\n0 1", "1 2\t", "1 2 ", "1 2\r",
        "\r1\r2\r", " \t 1 \t 2 \t ", "1 2 3", "1 2 x", "1 2x", "1x 2",
        "x", "1 2 #", "1 2#", "1#2", "#1 2", "1 #2", "#", "# #", "##\n1 2",
        "# 5 nodes", "# 5 nodes,", "# nodes", "#5 nodes", "# +5 nodes",
        "# 5, nodes", "# 05 nodes", "# 0x5 nodes", "# 3 nodes 9 nodes",
        "# 3 9 nodes", "# 9 3 nodes\n0 1", "# 7 nodes\n# 4 nodes\n0 1",
        "# 6 nodes\n0 1", "# 7 nodes\n0 1", "0 1 # 9 nodes",
        "x # 9 nodes", "# 9\tnodes\r", "# 9\vnodes",
        "# 18446744073709551615 nodes", "# 18446744073709551616 nodes",
        "0 5", "0 6", "6 6", "7 0 # 3 nodes",
        "3 2\n2 3\n3 2\n1 1\n", "\n1 2\n\n3 4\n\n"));

// Line endings, NUL bytes and a missing final newline.
INSTANTIATE_TEST_SUITE_P(
    LineEnds, EdgeScanGrammar,
    testing::Values(std::string("0 1\r\n1 2\r\n# c\r\n\r\n"),
                    std::string("0 1\r\n1 2"), std::string("0 1\n1 2"),
                    std::string("0 1\n# last"), std::string("0 1\n   "),
                    std::string("\r\n\r\n"), std::string("\r"),
                    std::string("0 1\n\0", 5), std::string("\0", 1),
                    std::string("0\0 1\n", 5), std::string("0 1\n2 3\0", 8),
                    std::string("# \0 5 nodes\n0 1\n", 16),
                    std::string("0 1 #\0\n2 3\n", 11),
                    std::string("\n"), std::string("1 2\n\n")));

// Headers that lie about the node count (kPreserve trusts them).
INSTANTIATE_TEST_SUITE_P(
    LyingHeaders, EdgeScanGrammar,
    testing::Values(
        "# sgp edge list: 2147483649 nodes, 1 edges\n0 1\n",
        "# sgp edge list: 2147483648 nodes, 1 edges\n0 1\n",
        "# sgp edge list: 4294967296 nodes, 1 edges\n0 1\n",
        "# sgp edge list: 6 nodes, 1 edges\n0 1\n",
        "# sgp edge list: 1 nodes, 3 edges\n0 1\n1 2\n2 3\n",
        "0 1\n1 2\n# sgp edge list: 99999999999 nodes\n3 4\n"));

constexpr std::size_t kChunk = kEdgeScanChunkBytes;

TEST(EdgeScanBlocks, LineAndCommentLongerThanOneBlock) {
  const std::string spaces(2 * kChunk + 17, ' ');
  const std::string xs(3 * kChunk + 5, 'x');
  expect_same_grammar("0 1" + spaces + "\n2 3\n");
  expect_same_grammar(spaces + "4 5\n6 7\n");
  expect_same_grammar("# " + xs + "\n8 9\n");
  expect_same_grammar("# " + xs + " 12 nodes\n8 9\n");
  expect_same_grammar("8 9 # " + xs);  // no final '\n'
  expect_same_grammar("0 1\n" + std::string(kChunk + 3, '7') + " 1\n");
  expect_same_grammar("0 1\n1 " + std::string(kChunk, '0') + "2\n");
  expect_same_grammar("0 1\n" + spaces + "x\n");
  expect_same_grammar(std::string(kChunk, '\n') + "0 1\n");
}

TEST(EdgeScanBlocks, LinesSplitAtEveryOffsetAroundABlockBoundary) {
  // A filler comment puts the block boundary at every byte of the lines
  // that follow it, and right on their '\n', '\r' and '#'.
  const std::vector<std::string> tails = {
      "12345 67890\n3 4\n", "12345 67890\r\n3 4\r\n", "12 34 # 5 nodes\n7 8\n",
      "1 2 3\n", "-5 6\n", "1\v2\n", "\n\n9 8\n"};
  for (const std::string& tail : tails) {
    const auto last = static_cast<std::ptrdiff_t>(tail.size()) + 1;
    for (std::ptrdiff_t before = -1; before <= last; ++before) {
      // "#" + filler + "\n" ends `before` bytes ahead of the boundary.
      const std::string filler(
          static_cast<std::size_t>(static_cast<std::ptrdiff_t>(kChunk) - 2 -
                                   before),
          'f');
      expect_same_grammar("#" + filler + "\n" + tail);
      expect_same_grammar("#" + filler + "\n" +
                          tail.substr(0, tail.size() - 1));
    }
  }
  // Exactly one and exactly two blocks of input.
  std::string exact;
  while (exact.size() + 6 <= kChunk) exact += "10 11\n";
  exact += std::string(kChunk - exact.size() - 1, ' ') + "\n";
  ASSERT_EQ(exact.size(), kChunk);
  expect_same_grammar(exact);
  expect_same_grammar(exact + exact);
}

TEST(EdgeScanBlocks, RandomTextMatchesReference) {
  // Short strings over the grammar's alphabet, then multi-block files of
  // mostly valid lines with the same noise sprinkled in.
  static constexpr char kAlphabet[] = "0123456789 \t\r\n\v\f#+-x.n";
  random::Rng rng(20260417);
  const auto pick = [&] {
    return kAlphabet[rng.next_below(sizeof(kAlphabet) - 1)];
  };
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text;
    const std::size_t len = rng.next_below(24);
    for (std::size_t i = 0; i < len; ++i) text += pick();
    if (rng.next_below(8) == 0) text += '\0';
    expect_same_grammar(text);
  }
  for (int trial = 0; trial < 6; ++trial) {
    std::string text;
    while (text.size() < 3 * kChunk) {
      text += std::to_string(rng.next_below(1000)) + " " +
              std::to_string(rng.next_below(1000));
      if (rng.next_below(50) == 0) text += " # 4 nodes";
      if (trial >= 3 && rng.next_below(20000) == 0) text += pick();
      text += rng.next_below(10) == 0 ? "\r\n" : "\n";
    }
    expect_same_grammar(text);
  }
}

/// Serves `text`, then fails the way a disk read error does.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(std::string text) : text_(std::move(text)) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  int_type underflow() override { throw std::ios_base::failure("EIO"); }

 private:
  std::string text_;
};

TEST(EdgeScanBlocks, StreamReadErrorThrowsIoError) {
  FailingBuf buf("0 1\n1 2\n2");
  std::istream in(&buf);
  EXPECT_THROW((void)scan_edge_list(in, IdPolicy::kCompact,
                                    kDefaultMaxPreservedNodeId,
                                    [](std::uint64_t, std::uint64_t) {}),
               util::IoError);
}

}  // namespace
}  // namespace sgp::graph
