// Event log tests: log order and fields, concurrent logging, the metrics
// gate, and reset (obs/event_log.hpp).
#include "obs/event_log.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace {

class EventLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sgp::obs::set_metrics_enabled(true);
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_event_log();
  }
  void TearDown() override {
    sgp::obs::clear_event_log();
    sgp::obs::reset_all_metrics();
    sgp::obs::set_metrics_enabled(false);
  }
};

TEST_F(EventLogTest, KeepsLogOrderFieldsAndClockOrder) {
  sgp::obs::log_event("first.event", {{"k", "v"}});
  sgp::obs::log_event("second.event");
  const auto events = sgp::obs::collected_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "first.event");
  ASSERT_EQ(events[0].fields.size(), 1u);
  EXPECT_EQ(events[0].fields[0].first, "k");
  EXPECT_EQ(events[0].fields[0].second, "v");
  EXPECT_EQ(events[1].name, "second.event");
  EXPECT_TRUE(events[1].fields.empty());
  EXPECT_LE(events[0].t, events[1].t);
}

// log_event is thread-safe: concurrent loggers lose no event, and each
// thread's events keep their relative order.
TEST_F(EventLogTest, ConcurrentLoggersLoseNothing) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        sgp::obs::log_event("concurrent.event", {{"thread", std::to_string(t)},
                                                 {"i", std::to_string(i)}});
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const auto events = sgp::obs::collected_events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads * kPerThread));
  std::map<std::string, int> next;
  for (const auto& event : events) {
    ASSERT_EQ(event.fields.size(), 2u);
    int& expected = next[event.fields[0].second];
    EXPECT_EQ(event.fields[1].second, std::to_string(expected));
    ++expected;
  }
  EXPECT_EQ(next.size(), static_cast<std::size_t>(kThreads));
}

TEST_F(EventLogTest, DisabledLogIsNoOp) {
  sgp::obs::set_metrics_enabled(false);
  sgp::obs::log_event("ignored.event");
  EXPECT_TRUE(sgp::obs::collected_events().empty());
}

TEST_F(EventLogTest, ClearEventLogDropsEvents) {
  sgp::obs::log_event("before.clear");
  sgp::obs::clear_event_log();
  EXPECT_TRUE(sgp::obs::collected_events().empty());
}

}  // namespace
