// Byte-identity contract of the sgp_publish binary across its publish modes.
// Every mode runs the same row-block kernel (core::publish_rows), so the
// default in-memory path, --streaming, --shard-rows and --workers must
// write the same release bytes for one seed; --streaming (an alias for the
// single-process sharded path) must clean up its checkpoint like any
// completed sharded run.
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
        {"shard_rows", "--shard-rows 7"},
        {"workers", "--workers 2"}}) {
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

}  // namespace
}  // namespace sgp
