// Invariants of the canonical metric-name registry (src/obs/
// metric_names.hpp) and its drift check against docs/observability.md —
// the two consumers the sgp-lint R3 rule keeps honest.
#include "obs/metric_names.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace sgp::obs::names {
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

TEST(MetricNamesTest, AllNamesSortedAndUnique) {
  for (std::size_t i = 1; i < std::size(kAllNames); ++i) {
    EXPECT_LT(kAllNames[i - 1], kAllNames[i])
        << "kAllNames must stay strictly sorted: " << kAllNames[i - 1]
        << " vs " << kAllNames[i];
  }
}

TEST(MetricNamesTest, NamesFollowNamingRules) {
  // docs/observability.md: lowercase dotted "subsystem.noun[.verb]".
  // Bare subsystem names (e.g. "publish", "kmeans") are legal span bases.
  for (std::string_view name : kAllNames) {
    EXPECT_TRUE(well_formed(name)) << name;
  }
}

TEST(MetricNamesTest, EveryRegisteredNameIsCanonical) {
  for (std::string_view name : kAllNames) {
    EXPECT_TRUE(is_canonical_name(name)) << name;
  }
}

TEST(MetricNamesTest, DerivedTimerHistogramsAreCanonical) {
  // ScopedTimer(kX) records into "<kX>.seconds" automatically.
  EXPECT_TRUE(is_canonical_name("publish.project.seconds"));
  EXPECT_TRUE(is_canonical_name("tool.publish.seconds"));
  EXPECT_TRUE(is_canonical_name(std::string(kPublish) + ".seconds"));
}

TEST(MetricNamesTest, UnknownNamesAreNotCanonical) {
  EXPECT_FALSE(is_canonical_name("publish.typo"));
  EXPECT_FALSE(is_canonical_name("publish.typo.seconds"));
  EXPECT_FALSE(is_canonical_name(".seconds"));
  EXPECT_FALSE(is_canonical_name(""));
}

// The multi-process publish and its instruments are gone; a report, a doc
// or a call site naming one is stale.
TEST(MetricNamesTest, RemovedWorkerNamesAreNotCanonical) {
  for (const char* removed :
       {"publish.workers", "publish.leases_reclaimed", "publish.distributed",
        "publish.distributed.seconds", "lease.reclaimed", "shard.leased",
        "shard.committed", "shard.resumed", "worker.exit", "worker.spawned",
        "worker.shard_start", "worker.shard_done"}) {
    EXPECT_FALSE(is_canonical_name(removed)) << removed;
  }
}

TEST(MetricNamesTest, SpotCheckConstantValues) {
  EXPECT_EQ(kPublish, "publish");
  EXPECT_EQ(kPublishReleases, "publish.releases");
  EXPECT_EQ(kLedgerAppendSeconds, "ledger.append.seconds");
  EXPECT_EQ(kGraphNodes, "graph.nodes");
}

// Drift check: every concrete metric-shaped name mentioned in backticks in
// docs/observability.md must be canonical (directly, or as the base of a
// derived ".seconds" histogram). Wildcard families (`publish.*`), naming-
// convention placeholders (`subsystem.noun[.verb]`), and bench-scope names
// (ad-hoc by design, see the R3 scope comment) are skipped.
TEST(MetricNamesTest, DocsMentionOnlyCanonicalNames) {
  std::ifstream in(std::string(SGP_SOURCE_ROOT) + "/docs/observability.md",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "docs/observability.md not found";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string doc = buf.str();

  auto metric_shaped = [](const std::string& s) {
    if (s.find('.') == std::string::npos) return false;
    if (s.front() < 'a' || s.front() > 'z') return false;
    bool prev_dot = false;
    for (char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_' || c == '.';
      if (!ok) return false;
      if (c == '.' && prev_dot) return false;
      prev_dot = (c == '.');
    }
    return !prev_dot;
  };

  std::vector<std::string> documented;
  std::size_t pos = 0;
  while ((pos = doc.find('`', pos)) != std::string::npos) {
    const std::size_t end = doc.find('`', pos + 1);
    if (end == std::string::npos) break;
    const std::string tok = doc.substr(pos + 1, end - pos - 1);
    pos = end + 1;
    if (!metric_shaped(tok)) continue;
    if (tok.rfind("bench.", 0) == 0) continue;
    if (tok.rfind("subsystem.", 0) == 0) continue;
    documented.push_back(tok);
  }
  ASSERT_FALSE(documented.empty())
      << "drift test found no metric names in the docs — did the doc "
         "format change?";
  for (const std::string& name : documented) {
    EXPECT_TRUE(is_canonical_name(name) ||
                is_canonical_name(name + ".seconds"))
        << "docs/observability.md mentions `" << name
        << "` which is not in src/obs/metric_names.hpp";
  }
}

}  // namespace
}  // namespace sgp::obs::names
