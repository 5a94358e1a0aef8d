// v1 report tests beyond the exporter goldens: the "events" array, its
// validation, and the sgp_trace renderers over a v1 report — the Chrome
// trace export and its validator, and the text summary (obs/report.hpp).
#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

using sgp::util::JsonValue;

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sgp::obs::set_metrics_enabled(true);
    sgp::obs::set_trace_enabled(true);
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_spans();
    sgp::obs::clear_event_log();
  }
  void TearDown() override {
    sgp::obs::clear_event_log();
    sgp::obs::clear_spans();
    sgp::obs::reset_all_metrics();
    sgp::obs::set_trace_enabled(false);
    sgp::obs::set_metrics_enabled(false);
  }

  /// A sharded-publish-shaped run: one root span over two publish.shard
  /// children, a ledger charge and a resource sample.
  static std::string write_run_report() {
    {
      sgp::obs::Span root("publish.sharded");
      for (std::uint64_t s = 0; s < 2; ++s) {
        sgp::obs::Span shard("publish.shard");
        shard.attr("shard", s);
      }
      sgp::obs::log_event("ledger.charge", {{"release", "1"}});
      sgp::obs::log_event("proc.sample",
                          {{"rss_mb", "12.5"}, {"open_fds", "7"}});
    }
    std::ostringstream out;
    sgp::obs::Report("unit").write(out);
    return out.str();
  }
};

TEST_F(ReportTest, WriteEmitsEventsInLogOrderAndValidates) {
  const JsonValue doc = sgp::util::parse_json(write_run_report());
  EXPECT_EQ(sgp::obs::validate_report_json(doc), std::nullopt);
  const auto& events = doc.find("events")->as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("name")->as_string(), "ledger.charge");
  EXPECT_EQ(events[0].find("fields")->find("release")->as_string(), "1");
  EXPECT_EQ(events[1].find("name")->as_string(), "proc.sample");
  EXPECT_LE(events[0].find("t")->as_number(),
            events[1].find("t")->as_number());
}

TEST_F(ReportTest, EmptyEventLogWritesEmptyArray) {
  std::ostringstream out;
  sgp::obs::Report("unit").write(out);
  const JsonValue doc = sgp::util::parse_json(out.str());
  EXPECT_EQ(sgp::obs::validate_report_json(doc), std::nullopt);
  ASSERT_NE(doc.find("events"), nullptr);
  EXPECT_TRUE(doc.find("events")->as_array().empty());
}

TEST_F(ReportTest, ValidatorChecksEventsShapeWhenPresent) {
  const std::string good = write_run_report();
  struct Case {
    std::string from;
    std::string to;
  };
  const std::vector<Case> cases = {
      {"\"events\": [", "\"events\": 7, \"unused\": ["},
      {"\"name\": \"ledger.charge\"", "\"name\": 3"},
      {"\"fields\": {\"release\": \"1\"}", "\"fields\": []"},
      {"\"release\": \"1\"", "\"release\": 1"},
  };
  for (const Case& c : cases) {
    std::string text = good;
    const std::size_t at = text.find(c.from);
    ASSERT_NE(at, std::string::npos) << c.from;
    text.replace(at, c.from.size(), c.to);
    EXPECT_NE(sgp::obs::validate_report_json(sgp::util::parse_json(text)),
              std::nullopt)
        << c.to;
  }
  // Reports written before the array existed still validate.
  std::string no_events = good;
  const std::size_t at = no_events.find(",\n\"events\": ");
  ASSERT_NE(at, std::string::npos);
  no_events = no_events.substr(0, at) + "\n}\n";
  EXPECT_EQ(
      sgp::obs::validate_report_json(sgp::util::parse_json(no_events)),
      std::nullopt);
}

TEST_F(ReportTest, ChromeTraceRoundTripsThroughValidator) {
  const JsonValue doc = sgp::util::parse_json(write_run_report());
  std::ostringstream out;
  sgp::obs::write_chrome_trace(out, doc);
  const JsonValue trace = sgp::util::parse_json(out.str());
  EXPECT_EQ(sgp::obs::validate_chrome_trace_json(trace), std::nullopt);

  std::size_t metadata = 0;
  std::size_t complete = 0;
  std::size_t shards = 0;
  std::size_t instants = 0;
  std::size_t counters = 0;
  for (const JsonValue& e : trace.find("traceEvents")->as_array()) {
    const std::string ph = e.find("ph")->as_string();
    if (ph == "M") ++metadata;
    if (ph == "X") ++complete;
    if (ph == "X" && e.find("name")->as_string() == "publish.shard") ++shards;
    if (ph == "i") ++instants;
    if (ph == "C") {
      ++counters;
      EXPECT_DOUBLE_EQ(e.find("args")->find("rss_mb")->as_number(), 12.5);
    }
  }
  EXPECT_EQ(metadata, 1u);  // the process-name record
  EXPECT_EQ(complete, 3u);  // every span in the tree
  EXPECT_EQ(shards, 2u);
  EXPECT_EQ(instants, 1u);  // the ledger charge
  EXPECT_EQ(counters, 1u);  // the resource sample
}

TEST_F(ReportTest, ChromeValidatorRejectsMalformedTraces) {
  EXPECT_NE(sgp::obs::validate_chrome_trace_json(
                sgp::util::parse_json("{\"traceEvents\": 7}")),
            std::nullopt);
  EXPECT_NE(sgp::obs::validate_chrome_trace_json(sgp::util::parse_json(
                "{\"traceEvents\": [{\"name\": \"x\", \"ph\": 9}]}")),
            std::nullopt)
      << "ph must be a string";
  EXPECT_NE(
      sgp::obs::validate_chrome_trace_json(sgp::util::parse_json(
          "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"X\", \"pid\": 1, "
          "\"tid\": 0, \"ts\": 1.0, \"dur\": -2.0}]}")),
      std::nullopt)
      << "negative dur must be rejected";
  EXPECT_NE(
      sgp::obs::validate_chrome_trace_json(sgp::util::parse_json(
          "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"i\", \"pid\": 1}]}")),
      std::nullopt)
      << "non-metadata events need a timestamp";
}

TEST_F(ReportTest, SummaryShowsShardTimelineAndCriticalPath) {
  const JsonValue doc = sgp::util::parse_json(write_run_report());
  std::ostringstream out;
  sgp::obs::write_trace_summary(out, doc);
  const std::string summary = out.str();
  EXPECT_EQ(summary.rfind("report unit\n", 0), 0u) << summary;
  EXPECT_NE(summary.find("shard timeline"), std::string::npos) << summary;
  EXPECT_NE(summary.find("shard 0"), std::string::npos) << summary;
  EXPECT_NE(summary.find("shard 1"), std::string::npos) << summary;
  EXPECT_NE(summary.find("critical path\n  publish.sharded"),
            std::string::npos)
      << summary;
}

}  // namespace
