// Chaos suite: every named fault point armed against live publish sessions.
//
// The invariants under test are the ones that make the privacy guarantee
// crash-safe (see docs/robustness.md):
//   1. A session never returns a published artifact that is not recorded in
//      its ledger — budget can be over-counted by a failure, never
//      under-counted.
//   2. A fresh session reloading the ledger after a simulated kill reports
//      spent() >= the pre-crash value and keeps enforcing the cap.
//   3. Solver faults degrade gracefully: spectral clustering falls back to
//      the dense eigensolver and still returns valid labels.
//   4. Armed IO/alloc faults surface as the mapped taxonomy errors — never
//      crashes, hangs, or silent wrong results.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "cluster/spectral.hpp"
#include "core/ledger.hpp"
#include "core/serialization.hpp"
#include "core/session.hpp"
#include "core/sharded_publish.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "../reference_publish.hpp"

namespace sgp {
namespace {

class ChaosTest : public testing::Test {
 protected:
  void SetUp() override {
    util::disarm_all_faults();
    ledger_path_ = testing::TempDir() + "/sgp_chaos_" +
                   testing::UnitTest::GetInstance()->current_test_info()->name() +
                   ".ledger";
    std::remove(ledger_path_.c_str());
  }
  void TearDown() override {
    util::disarm_all_faults();
    std::remove(ledger_path_.c_str());
    std::remove((ledger_path_ + ".tmp").c_str());
  }

  static graph::Graph test_graph(std::uint64_t seed = 1) {
    random::Rng rng(seed);
    return graph::erdos_renyi(80, 0.1, rng);
  }

  static core::PublishingSession::Options session_options() {
    core::PublishingSession::Options opt;
    opt.publisher.projection_dim = 16;
    opt.publisher.params = {0.5, 1e-7};
    opt.publisher.seed = 5;
    opt.total_budget = {20.0, 1e-5};
    return opt;
  }

  std::string ledger_path_;
};

// --------------------------------------------------------------------------
// Invariant 1: with ledger.append faults firing intermittently, every
// artifact the session hands out is already on disk.
TEST_F(ChaosTest, LedgerFaultsNeverUndercountBudget) {
  const auto g = test_graph();
  core::PublishingSession session(session_options(), ledger_path_);

  util::FaultConfig cfg;
  cfg.probability = 0.4;
  cfg.seed = 2024;
  util::arm_fault("ledger.append", cfg);

  std::size_t artifacts = 0;
  std::size_t io_failures = 0;
  for (int i = 0; i < 12; ++i) {
    try {
      const auto release = session.publish(g);
      ++artifacts;
      // Every returned artifact must already be durably recorded.
      util::disarm_all_faults();
      EXPECT_GE(core::BudgetLedger(ledger_path_).size(), artifacts);
      util::arm_fault("ledger.append", cfg);
      cfg.seed += 1;  // vary the remaining pattern across iterations
    } catch (const util::IoError&) {
      ++io_failures;
    }
  }
  util::disarm_all_faults();
  EXPECT_GT(artifacts, 0u) << "fault probability 0.4 should let some through";
  EXPECT_GT(io_failures, 0u) << "fault probability 0.4 should block some";

  // In-memory count and durable count agree after the dust settles.
  EXPECT_EQ(core::BudgetLedger(ledger_path_).size(), session.num_releases());
  EXPECT_EQ(session.num_releases(), artifacts);
}

// --------------------------------------------------------------------------
// Invariant 2: recovery after a simulated kill.
TEST_F(ChaosTest, RecoveryAfterSimulatedKill) {
  const auto g = test_graph();
  double pre_crash_spent = 0.0;
  std::size_t pre_crash_releases = 0;
  {
    core::PublishingSession session(session_options(), ledger_path_);
    for (int i = 0; i < 3; ++i) (void)session.publish(g);
    pre_crash_spent = session.spent().epsilon;
    pre_crash_releases = session.num_releases();
    // The session object is dropped without any shutdown handshake — the
    // moral equivalent of SIGKILL between releases.
  }

  core::PublishingSession recovered(session_options(), ledger_path_);
  EXPECT_EQ(recovered.num_releases(), pre_crash_releases);
  EXPECT_GE(recovered.spent().epsilon, pre_crash_spent - 1e-12);
  EXPECT_DOUBLE_EQ(recovered.spent().epsilon, pre_crash_spent);

  // The recovered session keeps charging from where the crash left off.
  (void)recovered.publish(g);
  EXPECT_EQ(recovered.num_releases(), pre_crash_releases + 1);
  EXPECT_GT(recovered.spent().epsilon, pre_crash_spent);
}

// A crash *after* the ledger append but *before* the artifact went out
// (here: an allocation failure mid-publish) may only over-count.
TEST_F(ChaosTest, FailureAfterAppendOvercountsNeverUndercounts) {
  const auto g = test_graph();
  core::PublishingSession session(session_options(), ledger_path_);
  (void)session.publish(g);
  const double spent_before = session.spent().epsilon;

  util::arm_fault("alloc");
  // The armed fault raises std::bad_alloc at the fault point; the publisher
  // surfaces it as the typed ResourceError of the error taxonomy.
  EXPECT_THROW((void)session.publish(g), util::ResourceError);
  util::disarm_all_faults();

  // The charge is on disk even though no artifact was returned.
  EXPECT_EQ(core::BudgetLedger(ledger_path_).size(), 2u);
  core::PublishingSession recovered(session_options(), ledger_path_);
  EXPECT_EQ(recovered.num_releases(), 2u);
  EXPECT_GE(recovered.spent().epsilon, spent_before);
}

// --------------------------------------------------------------------------
// A ledger written under different per-release parameters must be refused,
// not silently reinterpreted.
TEST_F(ChaosTest, RecoveryRefusesMismatchedConfiguration) {
  {
    core::PublishingSession session(session_options(), ledger_path_);
    (void)session.publish(test_graph());
  }
  auto opt = session_options();
  opt.publisher.params.epsilon = 0.9;  // not what the ledger was written with
  EXPECT_THROW(core::PublishingSession(opt, ledger_path_),
               util::LedgerCorruptError);
}

// --------------------------------------------------------------------------
// Budget-exhaustion refusal is typed, uncharged, and unrecorded.
TEST_F(ChaosTest, ExhaustionRefusalLeavesLedgerUntouched) {
  auto opt = session_options();
  opt.publisher.params = {1.0, 1e-7};
  opt.total_budget = {2.0, 1e-5};
  core::PublishingSession session(opt, ledger_path_);
  const auto g = test_graph();

  std::size_t published = 0;
  for (int i = 0; i < 50; ++i) {
    try {
      (void)session.publish(g);
      ++published;
    } catch (const util::BudgetExhaustedError&) {
      break;
    }
  }
  EXPECT_GE(published, 2u);
  EXPECT_LE(session.spent().epsilon, 2.0 + 1e-9);
  EXPECT_EQ(core::BudgetLedger(ledger_path_).size(), published)
      << "a refused release must not be recorded";
}

// --------------------------------------------------------------------------
// Invariant 3: solver fault injection triggers the dense-eigensolver
// fallback and spectral clustering still returns valid labels.
TEST_F(ChaosTest, SolverFaultFallsBackToDenseEigensolver) {
  random::Rng rng(3);
  const auto planted = graph::stochastic_block_model(
      std::vector<std::size_t>(4, 30), 0.5, 0.02, rng);

  util::arm_fault("solver.iteration");  // every Lanczos attempt dies

  cluster::SpectralOptions opt;
  opt.num_clusters = 4;
  opt.seed = 11;
  const auto result = cluster::spectral_cluster_graph(planted.graph, opt);

  EXPECT_GT(util::fault_fires("solver.iteration"), 0u)
      << "the fault must actually have hit the Lanczos path";
  util::disarm_all_faults();

  ASSERT_EQ(result.assignments.size(), planted.graph.num_nodes());
  for (const auto label : result.assignments) {
    EXPECT_LT(label, 4u);
  }
  // The dense fallback sees the exact spectrum, so the planted communities
  // should still be recovered almost perfectly on this easy instance: check
  // that clusters are non-degenerate.
  std::vector<std::size_t> sizes(4, 0);
  for (const auto label : result.assignments) ++sizes[label];
  for (const std::size_t s : sizes) EXPECT_GT(s, 0u);
}

// --------------------------------------------------------------------------
// Invariant 4: every fault point armed at once — the pipeline fails only
// with typed errors, and works again the moment faults are disarmed.
TEST_F(ChaosTest, AllFaultPointsArmedFailCleanlyThenRecover) {
  const auto g = test_graph();
  const std::string edges = testing::TempDir() + "/sgp_chaos_all.edges";
  const std::string release = testing::TempDir() + "/sgp_chaos_all.release";

  util::arm_faults_from_spec(
      "io.read,io.write,ledger.append,solver.iteration,alloc");

  EXPECT_THROW(graph::write_edge_list_file(g, edges), util::IoError);
  EXPECT_THROW((void)graph::read_edge_list_file(edges, graph::IdPolicy::kCompact),
               util::IoError);
  {
    core::PublishingSession session(session_options(), ledger_path_);
    EXPECT_THROW((void)session.publish(g), util::IoError);  // ledger.append
    EXPECT_EQ(session.num_releases(), 0u);
  }
  {
    std::istringstream in("");
    EXPECT_THROW((void)core::load_published(in), util::IoError);  // io.read
  }

  util::disarm_all_faults();

  // Same pipeline, no faults: everything works end to end.
  graph::write_edge_list_file(g, edges);
  const auto reloaded = graph::read_edge_list_file(edges);
  EXPECT_EQ(reloaded.num_edges(), g.num_edges());
  core::PublishingSession session(session_options(), ledger_path_);
  const auto out = session.publish(reloaded);
  core::save_published_file(out, release);
  const auto loaded = core::load_published_file(release);
  EXPECT_EQ(loaded.num_nodes, reloaded.num_nodes());
  EXPECT_EQ(core::BudgetLedger(ledger_path_).size(), 1u);

  std::remove(edges.c_str());
  std::remove(release.c_str());
}

// --------------------------------------------------------------------------
// SGP_FAULT_SPEC-style intermittent IO faults replay identically: the same
// spec + seed produces the same sequence of publish outcomes.
TEST_F(ChaosTest, SeededFaultSequencesReplayExactly) {
  const auto g = test_graph();

  auto run = [&]() {
    std::remove(ledger_path_.c_str());
    util::arm_faults_from_spec("ledger.append:prob=0.5:seed=77");
    core::PublishingSession session(session_options(), ledger_path_);
    std::string outcome;
    for (int i = 0; i < 10; ++i) {
      try {
        (void)session.publish(g);
        outcome += 'P';
      } catch (const util::IoError&) {
        outcome += 'F';
      }
    }
    util::disarm_all_faults();
    return outcome;
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find('P'), std::string::npos);
  EXPECT_NE(first.find('F'), std::string::npos);
}

// --------------------------------------------------------------------------
// The out-of-core path under the same crash discipline: a ledger-charged
// sharded release killed mid-shard (spec-driven, like SGP_FAULT_SPEC in the
// CLI) is finished after recovery via release_options() — resuming from the
// shard checkpoint, charging no second release, and producing a file
// byte-identical to an uninterrupted run of the same charged release.
TEST_F(ChaosTest, ShardedReleaseCrashResumesFromLedgerWithoutSecondCharge) {
  const auto g = test_graph(9);
  const std::string edges = testing::TempDir() + "/sgp_chaos_shard.edges";
  const std::string out = testing::TempDir() + "/sgp_chaos_shard.bin";
  graph::write_edge_list_file(g, edges);
  graph::EdgeListShardReader reader(edges, graph::IdPolicy::kPreserve);

  // Charge release 1 into the ledger, then die on the 3rd shard write.
  {
    core::PublishingSession session(session_options(), ledger_path_);
    core::ShardedPublishOptions sopt;
    sopt.publish = session.begin_release();
    sopt.shard_rows = 10;
    util::arm_faults_from_spec("io.shard.write:after=2:count=1");
    EXPECT_THROW((void)core::publish_sharded(reader, sopt, out),
                 util::IoError);
    util::disarm_all_faults();
  }

  // Simulated restart: the ledger says release 1 is spent; finish it with
  // its recorded per-release options instead of charging release 2.
  core::PublishingSession recovered(session_options(), ledger_path_);
  ASSERT_EQ(recovered.num_releases(), 1u);
  core::ShardedPublishOptions sopt;
  sopt.publish = recovered.release_options(recovered.num_releases());
  sopt.shard_rows = 10;
  const auto result = core::publish_sharded(reader, sopt, out);
  EXPECT_GT(result.shards_resumed, 0u) << "checkpoint should have been used";
  EXPECT_EQ(recovered.num_releases(), 1u) << "finishing must not re-charge";
  EXPECT_EQ(core::BudgetLedger(ledger_path_).size(), 1u);

  // Byte-identical to an uninterrupted run of the same charged release.
  std::ostringstream reference(std::ios::binary);
  test::reference_publish(g, sopt.publish, reference);
  std::ifstream in(out, std::ios::binary);
  std::ostringstream produced;
  produced << in.rdbuf();
  EXPECT_EQ(produced.str(), reference.str());

  std::remove(edges.c_str());
  std::remove(out.c_str());
  std::remove((out + ".ckpt").c_str());
}

}  // namespace
}  // namespace sgp
