// Process-level chaos suite for the out-of-core publish: the real
// sgp_publish binary (SGP_PUBLISH_BIN) is crashed mid-release through the
// io.shard.checkpoint fault point (SGP_FAULT_SPEC), then rerun with the
// same command. The invariants under test:
//   1. A crash exits with the data error code (3) and leaves `<out>.ckpt`.
//   2. The rerun resumes from the checkpoint (publish.shards_resumed >= 1)
//      and writes exactly the bytes of an uninterrupted run — the pinned
//      golden release.
//   3. With a budget ledger the release is charged exactly once, however
//      many times the process died while producing it.
//   4. Neither --threads, --io-attempts retries of transient shard-read
//      faults, nor --no-resume changes a byte of the release.
// Labeled `chaos` so CI can run it as its own tier-1 group
// (`ctest -L chaos`); it is also part of the default suite.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/session.hpp"
#include "graph/io.hpp"
#include "util/json.hpp"
#include "../reference_publish.hpp"

namespace sgp::core {
namespace {

const std::string kEdgesPath =
    std::string(SGP_GOLDEN_DIR) + "/graph_n24.edges";
const std::string kReleasePath =
    std::string(SGP_GOLDEN_DIR) + "/release_n24_m8.bin";

/// Kills the third checkpoint append: shards 0 and 1 are vouched for,
/// shard 2's payload is on disk without its record.
const std::string kCrashSpec = "io.shard.checkpoint:after=2:count=1";

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class PublishChaosTest : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, in parallel: scratch files
    // are keyed on the pid and the test name.
    stem_ = (std::filesystem::path(testing::TempDir()) /
             ("sgp_chaos_" + std::to_string(::getpid()) + "_" +
              testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    out_path_ = stem_ + ".bin";
  }
  void TearDown() override {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(testing::TempDir(), ec)) {
      if (entry.path().string().rfind(stem_, 0) == 0) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }

  /// Runs the golden configuration (24 nodes, m=8, seed 4321, 6 shards of
  /// 4 rows) with `extra` flags, under `fault_spec` when non-empty, and
  /// returns the exit code (-1 if the process did not exit normally).
  int publish(const std::string& extra,
              const std::string& fault_spec = "") const {
    std::ostringstream cmd;
    if (!fault_spec.empty()) cmd << "SGP_FAULT_SPEC=" << fault_spec << " ";
    cmd << SGP_PUBLISH_BIN << " --edges " << kEdgesPath << " --out "
        << out_path_ << " --shard-rows 4 --preserve-ids --dim 8 --seed 4321 "
        << extra << " 2>>" << stem_ << ".err";
    const int status = std::system(cmd.str().c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Value of counter `name` in the --metrics-out report at `path`, or -1
  /// when the report does not carry it.
  static double report_counter(const std::string& path,
                               const std::string& name) {
    const util::JsonValue report = util::parse_json(file_bytes(path));
    const util::JsonValue* metrics = report.find("metrics");
    if (metrics == nullptr) return -1.0;
    const util::JsonValue* counters = metrics->find("counters");
    if (counters == nullptr) return -1.0;
    const util::JsonValue* value = counters->find(name);
    return value == nullptr ? -1.0 : value->as_number();
  }

  std::string stem_;
  std::string out_path_;
};

TEST_F(PublishChaosTest, CleanRunIsByteIdenticalToGolden) {
  ASSERT_EQ(publish(""), 0) << file_bytes(stem_ + ".err");
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));
}

// A crash while a shard's payload is being written (before its record):
// the rerun resumes the shards already vouched for.
TEST_F(PublishChaosTest, ShardWriteCrashResumesToGoldenBytes) {
  ASSERT_EQ(publish("", "io.shard.write:after=3:count=1"), 3)
      << file_bytes(stem_ + ".err");
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const std::string metrics_path = stem_ + ".metrics.json";
  ASSERT_EQ(publish("--metrics-out " + metrics_path), 0)
      << file_bytes(stem_ + ".err");
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  EXPECT_EQ(report_counter(metrics_path, "publish.shards_resumed"), 3.0);
}

// --threads is not part of the job: a run crashed on one thread resumes
// on three to the same bytes.
TEST_F(PublishChaosTest, ResumeUnderOtherThreadCountKeepsGoldenBytes) {
  ASSERT_EQ(publish("--threads 1", kCrashSpec), 3)
      << file_bytes(stem_ + ".err");
  const std::string metrics_path = stem_ + ".metrics.json";
  ASSERT_EQ(publish("--threads 3 --metrics-out " + metrics_path), 0)
      << file_bytes(stem_ + ".err");
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  EXPECT_EQ(report_counter(metrics_path, "publish.shards_resumed"), 2.0);
}

// --io-attempts retries the idempotent shard loads: two transient read
// faults cost two retries and no bytes.
TEST_F(PublishChaosTest, TransientReadFaultsRetryToGoldenBytes) {
  const std::string metrics_path = stem_ + ".metrics.json";
  ASSERT_EQ(publish("--io-attempts 4 --metrics-out " + metrics_path,
                    "io.shard.read:after=1:count=2"),
            0)
      << file_bytes(stem_ + ".err");
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  EXPECT_EQ(report_counter(metrics_path, "retry.attempts"), 2.0);
}

// --no-resume ignores the leftover checkpoint and writes the whole release
// again, to the same bytes.
TEST_F(PublishChaosTest, NoResumeRestartsToGoldenBytes) {
  ASSERT_EQ(publish("", kCrashSpec), 3) << file_bytes(stem_ + ".err");
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));
  const std::string metrics_path = stem_ + ".metrics.json";
  ASSERT_EQ(publish("--no-resume --metrics-out " + metrics_path), 0)
      << file_bytes(stem_ + ".err");
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath));
  EXPECT_LE(report_counter(metrics_path, "publish.shards_resumed"), 0.0);
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));
}

TEST_F(PublishChaosTest, CrashedRunResumesToGoldenBytes) {
  ASSERT_EQ(publish("", kCrashSpec), 3) << file_bytes(stem_ + ".err");
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));

  const std::string metrics_path = stem_ + ".metrics.json";
  ASSERT_EQ(publish("--metrics-out " + metrics_path), 0)
      << file_bytes(stem_ + ".err");
  EXPECT_EQ(file_bytes(out_path_), file_bytes(kReleasePath))
      << "the resumed release drifted from the golden bytes";
  EXPECT_FALSE(std::filesystem::exists(out_path_ + ".ckpt"));

  const util::JsonValue report = util::parse_json(file_bytes(metrics_path));
  const util::JsonValue* counters = report.find("metrics");
  ASSERT_NE(counters, nullptr);
  counters = counters->find("counters");
  ASSERT_NE(counters, nullptr);
  const util::JsonValue* resumed = counters->find("publish.shards_resumed");
  ASSERT_NE(resumed, nullptr);
  EXPECT_GE(resumed->as_number(), 1.0);
}

// With a ledger, the crashed run has already charged its release (the
// charge is written ahead of the artifact). The rerun must finish that
// release under its charged options instead of charging a second one, and
// its bytes must equal the in-memory release for that charged index (a
// ledger-backed run mixes the release index into the seed, so the
// session-less golden does not apply).
TEST_F(PublishChaosTest, CrashedLedgerRunIsChargedExactlyOnce) {
  const std::string ledger_path = stem_ + ".ledger";
  const std::string ledger_flags =
      "--ledger " + ledger_path + " --budget-epsilon 10";
  ASSERT_EQ(publish(ledger_flags, kCrashSpec), 3)
      << file_bytes(stem_ + ".err");
  ASSERT_TRUE(std::filesystem::exists(out_path_ + ".ckpt"));
  ASSERT_EQ(publish(ledger_flags), 0) << file_bytes(stem_ + ".err");

  PublishingSession::Options sopt;
  sopt.publisher.projection_dim = 8;
  sopt.publisher.seed = 4321;
  sopt.total_budget = {10.0, 1e-5};
  PublishingSession session(sopt, ledger_path);
  ASSERT_EQ(session.num_releases(), 1u) << "budget charged more than once";

  const graph::Graph g =
      graph::read_edge_list_file(kEdgesPath, graph::IdPolicy::kPreserve);
  std::ostringstream ref(std::ios::binary);
  test::reference_publish(g, session.release_options(1), ref);
  EXPECT_EQ(file_bytes(out_path_), ref.str());
}

}  // namespace
}  // namespace sgp::core
