// Sidecar event log tests: CRC framing, buffered replay, torn-tail
// tolerance, durable vs batched records (obs/event_log.hpp + the reader in
// obs/aggregate.hpp).
#include "obs/event_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "obs/aggregate.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/errors.hpp"

namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sgp::obs::set_metrics_enabled(true);
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_event_log();
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    path_ = (std::filesystem::path(::testing::TempDir()) /
             ("sgp_evlog_" + name + ".jsonl"))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    sgp::obs::clear_event_log();
    sgp::obs::reset_all_metrics();
    sgp::obs::set_metrics_enabled(false);
    std::filesystem::remove(path_);
  }

  static sgp::obs::SidecarInfo worker_info() {
    sgp::obs::SidecarInfo info;
    info.role = "worker";
    info.trace_id = "deadbeefdeadbeef";
    info.parent_span = 7;
    info.worker = 2;
    info.gen = 1;
    return info;
  }

  std::string path_;
};

TEST_F(EventLogTest, CrcFrameRoundTrips) {
  const std::string body = "{\"type\":\"event\",\"name\":\"x\"}";
  const std::string line = sgp::util::crc_frame(body);
  std::string out;
  ASSERT_TRUE(sgp::util::crc_unframe(line, out));
  EXPECT_EQ(out, body);
}

TEST_F(EventLogTest, CrcUnframeRejectsCorruption) {
  std::string line = sgp::util::crc_frame("{\"a\":1}");
  std::string out;
  // Flip one body byte: the trailer no longer matches.
  line[2] = line[2] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(sgp::util::crc_unframe(line, out));
  // Truncated trailer (a torn write) is rejected, not trusted.
  const std::string full = sgp::util::crc_frame("{\"a\":1}");
  EXPECT_FALSE(sgp::util::crc_unframe(full.substr(0, full.size() - 3), out));
  EXPECT_FALSE(sgp::util::crc_unframe("no trailer here", out));
}

TEST_F(EventLogTest, EventsBeforeOpenAreReplayedBehindHeader) {
  // The ledger charge happens before the coordinator knows its sidecar
  // path — pre-open events must survive into the file, after the header.
  sgp::obs::log_event("early.one", {{"k", "v"}});
  sgp::obs::log_event("early.two");
  sgp::obs::open_sidecar(path_, worker_info());
  sgp::obs::log_event("late.three");
  sgp::obs::close_sidecar();

  const sgp::obs::ProcessLog log = sgp::obs::read_sidecar(path_);
  EXPECT_EQ(log.role, "worker");
  EXPECT_EQ(log.trace_id, "deadbeefdeadbeef");
  EXPECT_EQ(log.parent_span, 7u);
  EXPECT_EQ(log.worker, 2);
  EXPECT_EQ(log.gen, 1);
  EXPECT_FALSE(log.torn_tail);
  ASSERT_EQ(log.events.size(), 3u);
  EXPECT_EQ(log.events[0].name, "early.one");
  ASSERT_EQ(log.events[0].fields.size(), 1u);
  EXPECT_EQ(log.events[0].fields[0].first, "k");
  EXPECT_EQ(log.events[0].fields[0].second, "v");
  EXPECT_EQ(log.events[1].name, "early.two");
  EXPECT_EQ(log.events[2].name, "late.three");
}

TEST_F(EventLogTest, TornTailKeepsTruthfulPrefix) {
  sgp::obs::open_sidecar(path_, worker_info());
  sgp::obs::log_event("committed.event");
  sgp::obs::close_sidecar();
  {
    // Simulate a SIGKILL mid-append: a partial line with no CRC trailer.
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out << "{\"type\":\"event\",\"t\":1.0,\"name\":\"torn";
  }
  const sgp::obs::ProcessLog log = sgp::obs::read_sidecar(path_);
  EXPECT_TRUE(log.torn_tail);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].name, "committed.event");
}

TEST_F(EventLogTest, FlushWritesSpansAndMetricsSnapshot) {
  sgp::obs::set_trace_enabled(true);
  sgp::obs::clear_spans();
  sgp::obs::open_sidecar(path_, worker_info());
  sgp::obs::counter("test.evlog.counter").add(5);
  sgp::obs::gauge("test.evlog.gauge").set(2.5);
  sgp::obs::histogram("test.evlog.seconds").record(0.001);
  { sgp::obs::Span span("test.evlog.span"); }
  sgp::obs::flush_sidecar();
  // A later snapshot replaces the earlier one at read time (last wins).
  sgp::obs::counter("test.evlog.counter").add(1);
  sgp::obs::close_sidecar();
  sgp::obs::set_trace_enabled(false);

  const sgp::obs::ProcessLog log = sgp::obs::read_sidecar(path_);
  ASSERT_EQ(log.counters.count("test.evlog.counter"), 1u);
  EXPECT_EQ(log.counters.at("test.evlog.counter"), 6u);
  ASSERT_EQ(log.gauges.count("test.evlog.gauge"), 1u);
  EXPECT_DOUBLE_EQ(log.gauges.at("test.evlog.gauge"), 2.5);
  ASSERT_EQ(log.histograms.count("test.evlog.seconds"), 1u);
  const auto& h = log.histograms.at("test.evlog.seconds");
  EXPECT_EQ(h.count, 1u);
  EXPECT_DOUBLE_EQ(h.sum, 0.001);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : h.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, 1u);
  bool found_span = false;
  for (const auto& s : log.spans) {
    if (s.name == "test.evlog.span") found_span = true;
  }
  EXPECT_TRUE(found_span);
}

TEST_F(EventLogTest, BatchedEventsLandOnFlush) {
  sgp::obs::open_sidecar(path_, worker_info());
  sgp::obs::log_event("batched.sample", {{"rss", "1.0"}}, /*durable=*/false);
  sgp::obs::flush_sidecar();
  sgp::obs::close_sidecar();
  const sgp::obs::ProcessLog log = sgp::obs::read_sidecar(path_);
  ASSERT_EQ(log.events.size(), 1u);
  EXPECT_EQ(log.events[0].name, "batched.sample");
}

TEST_F(EventLogTest, DisabledLogIsNoOp) {
  sgp::obs::set_metrics_enabled(false);
  sgp::obs::log_event("ignored.event");
  EXPECT_TRUE(sgp::obs::collected_events().empty());
}

TEST_F(EventLogTest, ReadSidecarRejectsMissingFileAndMissingHeader) {
  EXPECT_THROW(sgp::obs::read_sidecar(path_ + ".nope"), sgp::util::IoError);
  {
    std::ofstream out(path_, std::ios::binary);
    out << sgp::util::crc_frame(
               "{\"type\":\"event\",\"t\":0.5,\"name\":\"orphan\"}")
        << "\n";
  }
  EXPECT_THROW(sgp::obs::read_sidecar(path_), sgp::util::IoError);
}

TEST_F(EventLogTest, ClearEventLogDropsStateAndDetaches) {
  sgp::obs::open_sidecar(path_, worker_info());
  sgp::obs::log_event("before.clear");
  sgp::obs::clear_event_log();
  EXPECT_FALSE(sgp::obs::sidecar_open());
  EXPECT_TRUE(sgp::obs::collected_events().empty());
}

}  // namespace
