// CLI contract of the sgp_publish binary. Every publish mode runs the same
// row-block kernel (core::publish_rows), so the default in-memory path,
// --streaming, --shard-rows and --max-memory-mb must write the same release
// bytes for one seed; a sharded run's --metrics-out counts its shards; --streaming (an alias for the sharded path) must clean up its
// checkpoint like any completed sharded run; and the removed multi-process
// flags must be refused with a usage error, never silently ignored.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "random/rng.hpp"
#include "util/json.hpp"

namespace sgp {
namespace {

class PublishCliTest : public testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own process, in parallel: scratch files
    // are keyed on the pid and the test name.
    stem_ = (std::filesystem::path(testing::TempDir()) /
             ("sgp_publish_cli_" + std::to_string(::getpid()) + "_" +
              testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    random::Rng rng(17);
    graph::write_edge_list_file(graph::barabasi_albert(150, 3, rng),
                                edges_path());
  }
  void TearDown() override {
    for (const auto& entry :
         std::filesystem::directory_iterator(testing::TempDir())) {
      if (entry.path().string().rfind(stem_, 0) == 0) {
        std::filesystem::remove(entry.path());
      }
    }
  }

  std::string edges_path() const { return stem_ + ".edges"; }

  /// Runs sgp_publish with `mode_flags` into `<stem>.<name>.bin`; returns
  /// the release path, or "" if the tool failed (stderr kept for the log).
  std::string publish(const std::string& name,
                      const std::string& mode_flags) const {
    const std::string out = stem_ + "." + name + ".bin";
    const std::string err = stem_ + "." + name + ".err";
    const std::string cmd = std::string(SGP_PUBLISH_BIN) + " --edges '" +
                            edges_path() + "' --out '" + out +
                            "' --dim 16 --seed 99 " + mode_flags + " > '" +
                            err + "' 2>&1";
    const int status = std::system(cmd.c_str());
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ADD_FAILURE() << name << " exited with status " << status << ":\n"
                    << slurp(err);
      return "";
    }
    return out;
  }

  /// Runs sgp_publish with `flags` added to a valid publish command and
  /// expects exit 2, a message naming --shard-rows and --threads, and no
  /// release file.
  void expect_refused(const std::string& flags) const {
    const std::string out = stem_ + ".refused.bin";
    const std::string err = stem_ + ".refused.err";
    const std::string cmd = std::string(SGP_PUBLISH_BIN) + " --edges '" +
                            edges_path() + "' --out '" + out +
                            "' --dim 16 " + flags + " > '" + err + "' 2>&1";
    const int status = std::system(cmd.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << flags;
    EXPECT_EQ(WEXITSTATUS(status), 2) << flags;
    const std::string message = slurp(err);
    EXPECT_NE(message.find("--shard-rows"), std::string::npos) << message;
    EXPECT_NE(message.find("--threads"), std::string::npos) << message;
    EXPECT_FALSE(std::filesystem::exists(out)) << flags;
  }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  std::string stem_;
};

TEST_F(PublishCliTest, EveryModeWritesIdenticalReleaseBytes) {
  const std::string in_memory = publish("default", "");
  ASSERT_FALSE(in_memory.empty());
  const std::string reference = slurp(in_memory);
  ASSERT_FALSE(reference.empty());

  for (const auto& [name, flags] :
       {std::pair<std::string, std::string>{"streaming", "--streaming"},
        {"shard_rows", "--shard-rows 7"}}) {
    const std::string out = publish(name, flags);
    ASSERT_FALSE(out.empty()) << name;
    EXPECT_EQ(slurp(out), reference) << name << " (" << flags << ")";
  }
}

TEST_F(PublishCliTest, StreamingLeavesNoCheckpointBehind) {
  const std::string out = publish("streaming", "--streaming");
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(std::filesystem::exists(out));
  EXPECT_FALSE(std::filesystem::exists(out + ".ckpt"));
}

// --metrics-out of a sharded run counts every shard it published: 150
// nodes at 7 rows per shard is 22 shards, none resumed.
TEST_F(PublishCliTest, ShardedRunCountsEveryShardInMetrics) {
  const std::string metrics = stem_ + ".metrics.json";
  const std::string out =
      publish("sharded", "--shard-rows 7 --metrics-out '" + metrics + "'");
  ASSERT_FALSE(out.empty());
  const util::JsonValue report = util::parse_json(slurp(metrics));
  const util::JsonValue* counters = report.find("metrics");
  ASSERT_NE(counters, nullptr);
  counters = counters->find("counters");
  ASSERT_NE(counters, nullptr);
  const util::JsonValue* shards = counters->find("publish.shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->as_number(), 22.0);
  const util::JsonValue* resumed = counters->find("publish.shards_resumed");
  EXPECT_TRUE(resumed == nullptr || resumed->as_number() == 0.0);
}

// --max-memory-mb derives the shard height from a budget; like every other
// mode it writes the in-memory release bytes.
TEST_F(PublishCliTest, MaxMemoryWritesIdenticalReleaseBytes) {
  const std::string in_memory = publish("default", "");
  ASSERT_FALSE(in_memory.empty());
  const std::string budgeted = publish("max_memory", "--max-memory-mb 1");
  ASSERT_FALSE(budgeted.empty());
  EXPECT_EQ(slurp(budgeted), slurp(in_memory));
  EXPECT_FALSE(std::filesystem::exists(budgeted + ".ckpt"));
}

// Ignoring --workers would quietly drop the out-of-core path and build the
// whole graph in memory, so each removed flag is a usage error (exit 2)
// that points at the single-process replacements and writes no release.
TEST_F(PublishCliTest, RefusesWorkers) { expect_refused("--workers 4"); }

TEST_F(PublishCliTest, RefusesLeaseTimeout) {
  expect_refused("--lease-timeout 30");
}

TEST_F(PublishCliTest, RefusesWorkerFaultSpec) {
  expect_refused("--worker-fault-spec io.read");
}

TEST_F(PublishCliTest, RefusesHiddenWorkerFlag) {
  expect_refused("--worker --shard-rows 7");
}

}  // namespace
}  // namespace sgp
