#include "core/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <vector>

#include "graph/generators.hpp"
#include "util/errors.hpp"

namespace sgp::core {
namespace {

graph::Graph small_graph(std::uint64_t seed = 1) {
  random::Rng rng(seed);
  return graph::erdos_renyi(100, 0.1, rng);
}

PublishingSession::Options session_options(double per_eps, double total_eps) {
  PublishingSession::Options opt;
  opt.publisher.projection_dim = 20;
  opt.publisher.params = {per_eps, 1e-7};
  opt.publisher.seed = 5;
  opt.total_budget = {total_eps, 1e-5};
  return opt;
}

TEST(SessionTest, StartsEmpty) {
  PublishingSession session(session_options(1.0, 10.0));
  EXPECT_EQ(session.num_releases(), 0u);
  EXPECT_DOUBLE_EQ(session.spent().epsilon, 0.0);
  EXPECT_DOUBLE_EQ(session.remaining_epsilon(), 10.0);
}

TEST(SessionTest, PublishChargesBudget) {
  PublishingSession session(session_options(1.0, 10.0));
  const auto g = small_graph();
  (void)session.publish(g);
  EXPECT_EQ(session.num_releases(), 1u);
  EXPECT_GT(session.spent().epsilon, 0.0);
  EXPECT_LE(session.spent().epsilon, 1.0 + 1e-9);
  EXPECT_LT(session.remaining_epsilon(), 10.0);
}

TEST(SessionTest, RefusesToExceedCap) {
  PublishingSession session(session_options(1.0, 2.5));
  const auto g = small_graph();
  bool refused = false;
  std::size_t published = 0;
  for (int i = 0; i < 100; ++i) {
    try {
      (void)session.publish(g);
      ++published;
      // Invariant: the spent budget never exceeds the cap.
      ASSERT_LE(session.spent().epsilon, 2.5 + 1e-9);
    } catch (const std::runtime_error&) {
      refused = true;
      break;
    }
  }
  EXPECT_TRUE(refused) << "session never enforced the cap";
  EXPECT_GE(published, 2u);  // cap allows at least basic 2 x 1.0
  EXPECT_EQ(session.num_releases(), published);  // refusal not charged
}

TEST(SessionTest, PerReleaseAboveCapRejectedAtConstruction) {
  EXPECT_THROW(PublishingSession(session_options(5.0, 2.0)),
               std::invalid_argument);
}

TEST(SessionTest, ReleasesUseFreshRandomness) {
  PublishingSession session(session_options(1.0, 10.0));
  const auto g = small_graph();
  const auto a = session.publish(g);
  const auto b = session.publish(g);
  EXPECT_NE(a.data, b.data);
}

TEST(SessionTest, RdpBeatsBasicForManySmallReleases) {
  // 50 releases at eps=0.2: basic composition says 10; RDP should do
  // noticeably better, leaving headroom under a cap of 10.
  auto opt = session_options(0.2, 10.0);
  PublishingSession session(opt);
  const auto g = small_graph();
  for (int i = 0; i < 50; ++i) (void)session.publish(g);
  EXPECT_LT(session.spent().epsilon, 10.0 * 0.9);
  EXPECT_GT(session.remaining_epsilon(), 0.0);
}

TEST(SessionTest, ReleaseExactlyAtTheCapIsAllowed) {
  // Two releases of ε=1.0 under a cap of exactly 2.0: sequential composition
  // lands exactly on the cap, which is "<=", not "past" — both must succeed.
  PublishingSession session(session_options(1.0, 2.0));
  const auto g = small_graph();
  (void)session.publish(g);
  (void)session.publish(g);
  EXPECT_EQ(session.num_releases(), 2u);
  EXPECT_LE(session.spent().epsilon, 2.0 + 1e-12);
}

TEST(SessionTest, RefusalIsTypedAndUncharged) {
  PublishingSession session(session_options(1.0, 2.0));
  const auto g = small_graph();
  bool refused = false;
  for (int i = 0; i < 50 && !refused; ++i) {
    try {
      (void)session.publish(g);
    } catch (const util::BudgetExhaustedError&) {
      refused = true;
    }
  }
  ASSERT_TRUE(refused);
  const auto releases_at_refusal = session.num_releases();
  const auto spent_at_refusal = session.spent().epsilon;
  // A refused publish charges nothing: state identical after another refusal.
  EXPECT_THROW((void)session.publish(g), util::BudgetExhaustedError);
  EXPECT_EQ(session.num_releases(), releases_at_refusal);
  EXPECT_DOUBLE_EQ(session.spent().epsilon, spent_at_refusal);
}

TEST(SessionTest, LedgerBackedSessionRecoversSpentBudget) {
  const std::string path = testing::TempDir() + "/sgp_session_ledger_test.ledger";
  std::remove(path.c_str());
  const auto g = small_graph();
  double spent = 0.0;
  std::vector<PublishedGraph> releases;
  {
    PublishingSession session(session_options(0.5, 10.0), path);
    ASSERT_TRUE(session.has_ledger());
    releases.push_back(session.publish(g));
    releases.push_back(session.publish(g));
    spent = session.spent().epsilon;
  }
  PublishingSession recovered(session_options(0.5, 10.0), path);
  EXPECT_EQ(recovered.num_releases(), 2u);
  EXPECT_DOUBLE_EQ(recovered.spent().epsilon, spent);
  // The charged record is the header's record: each ledger line carries
  // exactly the σ/Δ of the release it paid for.
  const auto& records = recovered.ledger()->records();
  ASSERT_EQ(records.size(), releases.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].sigma, releases[i].calibration.sigma) << i;
    EXPECT_EQ(records[i].sensitivity, releases[i].calibration.sensitivity)
        << i;
  }
  std::remove(path.c_str());
}

// Recovery accounts every recorded release at this session's σ/Δ, so a
// ledger charged under another calibration (same ε, δ) must be refused, not
// silently re-accounted.
TEST(SessionTest, LedgerFromAnotherCalibrationIsRefused) {
  const std::string path =
      testing::TempDir() + "/sgp_session_ledger_calibration.ledger";
  std::remove(path.c_str());
  {
    PublishingSession::Options classic = session_options(0.5, 10.0);
    classic.publisher.analytic_calibration = false;
    PublishingSession session(classic, path);
    (void)session.begin_release();
  }
  EXPECT_THROW(PublishingSession(session_options(0.5, 10.0), path),
               util::LedgerCorruptError);
  std::remove(path.c_str());
}

TEST(SessionTest, SpentIsMonotone) {
  PublishingSession session(session_options(0.5, 20.0));
  const auto g = small_graph();
  double last = 0.0;
  for (int i = 0; i < 5; ++i) {
    (void)session.publish(g);
    const double now = session.spent().epsilon;
    EXPECT_GT(now, last);
    last = now;
  }
}

}  // namespace
}  // namespace sgp::core
