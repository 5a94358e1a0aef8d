// Exporter golden tests. This suite is its own test binary on purpose: the
// metrics registry is process-global and append-only, so exact-output tests
// are only deterministic when every test in the process registers the same
// fixed set of metrics (alpha.count / beta.level / gamma.seconds). The
// Prometheus edge cases at the end register their own names and assert
// with find(), so they are declared after the goldens (and ctest runs each
// case in its own process anyway).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"

namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sgp::obs::set_metrics_enabled(true);
    sgp::obs::set_trace_enabled(true);
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_spans();
    sgp::obs::counter("alpha.count").add(3);
    sgp::obs::gauge("beta.level").set(2.5);
    sgp::obs::histogram("gamma.seconds").record(0.5);
  }
  void TearDown() override {
    sgp::obs::reset_all_metrics();
    sgp::obs::clear_spans();
    sgp::obs::set_metrics_enabled(false);
    sgp::obs::set_trace_enabled(false);
  }
};

TEST_F(ExportTest, JsonGolden) {
  std::ostringstream out;
  sgp::obs::write_metrics_json(out);
  // The bucket bound for a 0.5 s sample, rendered exactly as the exporter
  // renders numbers (bounds are powers of two times 1e-6, not integers).
  const std::string le = sgp::util::json_number(
      sgp::obs::Histogram::upper_bound(sgp::obs::Histogram::bucket_for(0.5)));
  const std::string expected = std::string("{\n") +
      "  \"counters\": {\n"
      "    \"alpha.count\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"beta.level\": 2.5\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"gamma.seconds\": {\"count\": 1, \"sum\": 0.5, \"buckets\": "
      "[{\"le\": " + le + ", \"count\": 1}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(out.str(), expected);
}

TEST_F(ExportTest, JsonOutputParses) {
  std::ostringstream out;
  sgp::obs::write_metrics_json(out);
  const auto doc = sgp::util::parse_json(out.str());
  ASSERT_TRUE(doc.is_object());
  const auto* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("alpha.count")->as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("beta.level")->as_number(), 2.5);
  const auto* hist = doc.find("histograms")->find("gamma.seconds");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->find("count")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(hist->find("sum")->as_number(), 0.5);
  EXPECT_EQ(hist->find("buckets")->as_array().size(), 1u);
}

TEST_F(ExportTest, PrometheusGolden) {
  std::ostringstream out;
  sgp::obs::write_metrics_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# TYPE sgp_alpha_count counter\nsgp_alpha_count 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sgp_beta_level gauge\nsgp_beta_level 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sgp_gamma_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: 0 below the sample's bucket, 1 from it onward.
  const std::size_t b = sgp::obs::Histogram::bucket_for(0.5);
  const std::string below = sgp::util::json_number(
      sgp::obs::Histogram::upper_bound(b - 1));
  const std::string at =
      sgp::util::json_number(sgp::obs::Histogram::upper_bound(b));
  EXPECT_NE(text.find("sgp_gamma_seconds_bucket{le=\"" + below + "\"} 0\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_bucket{le=\"" + at + "\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_sum 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("sgp_gamma_seconds_count 1\n"), std::string::npos);
}

TEST_F(ExportTest, ReportRoundTripValidates) {
  {
    sgp::obs::Span phase("test.export.phase");
    phase.attr("n", std::uint64_t{12});
  }
  sgp::obs::Report report("export-test");
  report.meta("epsilon", 1.5)
      .meta("dataset", "unit")
      .meta("nodes", std::uint64_t{500})
      .meta("streaming", false);

  std::ostringstream out;
  report.write(out);
  const auto doc = sgp::util::parse_json(out.str());
  EXPECT_EQ(sgp::obs::validate_report_json(doc), std::nullopt);

  EXPECT_EQ(doc.find("id")->as_string(), "export-test");
  const auto* meta = doc.find("meta");
  EXPECT_DOUBLE_EQ(meta->find("epsilon")->as_number(), 1.5);
  EXPECT_EQ(meta->find("dataset")->as_string(), "unit");
  EXPECT_DOUBLE_EQ(meta->find("nodes")->as_number(), 500.0);
  const auto& phases = doc.find("phases")->as_array();
  ASSERT_EQ(phases.size(), 1u);
  EXPECT_EQ(phases[0].find("name")->as_string(), "test.export.phase");
  const auto& spans = doc.find("spans")->as_array();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].find("attrs")->find("n")->as_string(), "12");
}

TEST_F(ExportTest, ValidatorRejectsMalformedReports) {
  const auto expect_error = [](const std::string& json) {
    const auto doc = sgp::util::parse_json(json);
    EXPECT_NE(sgp::obs::validate_report_json(doc), std::nullopt) << json;
  };
  expect_error("{}");
  expect_error("{\"schema\": \"bogus v9\", \"id\": \"x\"}");
  expect_error(
      "{\"schema\": \"sgp-obs-report v1\", \"id\": \"x\", \"meta\": {}, "
      "\"phases\": [], \"metrics\": {\"counters\": {}, \"gauges\": {}}, "
      "\"spans\": []}");  // histograms missing
  expect_error(
      "{\"schema\": \"sgp-obs-report v1\", \"id\": \"x\", \"meta\": {}, "
      "\"phases\": [{\"name\": \"p\"}], \"metrics\": {\"counters\": {}, "
      "\"gauges\": {}, \"histograms\": {}}, \"spans\": []}");  // no seconds
}

TEST_F(ExportTest, TraceTextTreeIndentsChildren) {
  {
    sgp::obs::Span outer("outer.phase");
    sgp::obs::Span inner("inner.step");
    inner.attr("k", "v");
  }
  std::ostringstream out;
  sgp::obs::write_trace_text(out);
  const std::string text = out.str();
  const auto outer_pos = text.find("outer.phase");
  const auto inner_pos = text.find("inner.step");
  ASSERT_NE(outer_pos, std::string::npos);
  ASSERT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);
  EXPECT_NE(text.find("k=v"), std::string::npos);
}

/// Prometheus exporter edge cases. Runs against the live process registry,
/// so names are namespaced and values asserted via find().
class PrometheusEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sgp::obs::set_metrics_enabled(true);
    sgp::obs::reset_all_metrics();
  }
  void TearDown() override {
    sgp::obs::reset_all_metrics();
    sgp::obs::set_metrics_enabled(false);
  }
  static std::string render() {
    std::ostringstream out;
    sgp::obs::write_metrics_prometheus(out);
    return out.str();
  }
};

TEST_F(PrometheusEdgeTest, NonAlnumCharactersEscapeToUnderscore) {
  sgp::obs::counter("test.prom-edge.weird").add(4);
  const std::string text = render();
  EXPECT_NE(text.find("# TYPE sgp_test_prom_edge_weird counter\n"
                      "sgp_test_prom_edge_weird 4\n"),
            std::string::npos)
      << text;
}

TEST_F(PrometheusEdgeTest, HistogramBucketsAreCumulativeUpToInf) {
  auto& h = sgp::obs::histogram("test.prom.cumulative.seconds");
  h.record(1e-6);  // lowest bucket
  h.record(0.5);
  h.record(1e9);  // beyond the largest finite bound: +Inf bucket
  const std::string text = render();

  // Every bucket line's count is monotone non-decreasing and the +Inf line
  // equals _count.
  const std::string bucket_prefix =
      "sgp_test_prom_cumulative_seconds_bucket{le=\"";
  double last = -1.0;
  std::size_t lines = 0;
  std::size_t at = 0;
  while ((at = text.find(bucket_prefix, at)) != std::string::npos) {
    const std::size_t value_at = text.find("} ", at);
    ASSERT_NE(value_at, std::string::npos);
    const double value = std::strtod(text.c_str() + value_at + 2, nullptr);
    EXPECT_GE(value, last);
    last = value;
    ++lines;
    at = value_at;
  }
  EXPECT_EQ(lines, sgp::obs::Histogram::kBuckets);
  EXPECT_NE(text.find("_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("sgp_test_prom_cumulative_seconds_count 3\n"),
            std::string::npos);
}

TEST_F(PrometheusEdgeTest, EmptyRegistrySectionsRenderNothing) {
  // A freshly reset registry may still carry earlier tests' names, so
  // assert on a definitely-absent name rather than emptiness.
  const std::string text = render();
  EXPECT_EQ(text.find("sgp_test_prom_never_registered"), std::string::npos);
}

}  // namespace
