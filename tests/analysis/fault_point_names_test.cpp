// Invariants of the canonical fault-point registry
// (src/util/fault_point_names.hpp) and its drift check against
// docs/robustness.md — the consumers the sgp-lint R9 rule keeps honest.
// Mirrors metric_names_test.cpp for the metric registry.
#include "util/fault_point_names.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace sgp::util::fault_points {
namespace {

bool well_formed(std::string_view name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  bool prev_dot = false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_' || c == '.';
    if (!ok) return false;
    if (c == '.' && prev_dot) return false;  // no empty segments
    prev_dot = (c == '.');
  }
  return name.front() >= 'a' && name.front() <= 'z';
}

TEST(FaultPointNamesTest, AllPointsSortedAndUnique) {
  for (std::size_t i = 1; i < std::size(kAllFaultPoints); ++i) {
    EXPECT_LT(kAllFaultPoints[i - 1], kAllFaultPoints[i])
        << "kAllFaultPoints must stay strictly sorted: "
        << kAllFaultPoints[i - 1] << " vs " << kAllFaultPoints[i];
  }
}

TEST(FaultPointNamesTest, PointsFollowNamingRules) {
  for (std::string_view name : kAllFaultPoints) {
    EXPECT_TRUE(well_formed(name)) << name;
  }
}

TEST(FaultPointNamesTest, EveryRegisteredPointIsCanonical) {
  for (std::string_view name : kAllFaultPoints) {
    EXPECT_TRUE(is_canonical_fault_point(name)) << name;
  }
}

TEST(FaultPointNamesTest, UnknownPointsAreNotCanonical) {
  EXPECT_FALSE(is_canonical_fault_point("io.raed"));
  EXPECT_FALSE(is_canonical_fault_point("alloc.big"));
  EXPECT_FALSE(is_canonical_fault_point(""));
}

TEST(FaultPointNamesTest, SpotCheckConstantValues) {
  EXPECT_EQ(kAlloc, "alloc");
  EXPECT_EQ(kIoShardWrite, "io.shard.write");
  EXPECT_EQ(kIoShardCheckpoint, "io.shard.checkpoint");
}

// The multi-process publish and its points are gone; a chaos spec naming
// one must not arm a point production never hits.
TEST(FaultPointNamesTest, RemovedWorkerPointsAreNotCanonical) {
  for (const char* removed : {"proc.spawn", "proc.worker.exit",
                              "lease.acquire", "lease.heartbeat"}) {
    EXPECT_FALSE(is_canonical_fault_point(removed)) << removed;
  }
}

// Drift check: every fault-point-shaped name mentioned in backticks in the
// fault-injection section of docs/robustness.md must be canonical, so the
// docs cannot describe a point the registry does not declare.
TEST(FaultPointNamesTest, DocsMentionOnlyCanonicalPoints) {
  std::ifstream in(std::string(SGP_SOURCE_ROOT) + "/docs/robustness.md",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "docs/robustness.md not found";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  // Only names under the known point prefixes are fault-point-shaped —
  // robustness.md also mentions metric names and file names in backticks.
  auto fault_shaped = [](const std::string& s) {
    static const char* kPrefixes[] = {"alloc", "io.",    "ledger.",
                                      "lease", "proc.",  "solver."};
    for (const char* p : kPrefixes) {
      if (s.rfind(p, 0) == 0) return true;
    }
    return false;
  };

  std::vector<std::string> documented;
  std::size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    const std::size_t end = doc.find('`', pos + 1);
    if (end == std::string::npos) break;
    const std::string tok = doc.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (tok.find('/') != std::string::npos) continue;  // a path
    if (tok.find('(') != std::string::npos) continue;  // a call
    if (tok.find('*') != std::string::npos) continue;  // wildcard family
    if (!fault_shaped(tok)) continue;
    documented.push_back(tok);
  }
  ASSERT_FALSE(documented.empty())
      << "drift test found no fault-point names in docs/robustness.md — "
         "did the doc format change?";
  for (const std::string& name : documented) {
    EXPECT_TRUE(is_canonical_fault_point(name))
        << "docs/robustness.md mentions `" << name
        << "` which is not in src/util/fault_point_names.hpp";
  }
}

}  // namespace
}  // namespace sgp::util::fault_points
