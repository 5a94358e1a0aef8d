// Combined machine-readable run report: metadata + phase timings + the full
// metrics snapshot + the span forest, in one JSON document.
//
// This is the format behind both `--metrics-out` on the sgp_* tools and the
// BENCH_<id>.json files the bench harness emits (schema "sgp-obs-report v1",
// validated by tools/sgp_bench_check and obs::validate_report_json):
//
//   {
//     "schema": "sgp-obs-report v1",
//     "id": "E7",
//     "meta": {"nodes": 4000, "epsilon": 1.0, ...},
//     "phases": [{"name": "publish", "seconds": 1.23}, ...],
//     "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
//     "spans": [...],
//     "events": [{"t": 0.12, "name": "ledger.charge", "fields": {...}}, ...]
//   }
//
// "phases" summarizes the root spans (name + duration, completion order) so
// consumers that only want coarse timings need not walk the span tree.
// "events" is the lifecycle event log (obs/event_log.hpp) in log order; it
// is optional for readers, so reports written before it existed validate.
//
// The same module renders a parsed report as a Chrome trace-event timeline
// and a text summary — the sgp_trace tool.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::util {
class JsonValue;
}  // namespace sgp::util

namespace sgp::obs {

class Report {
 public:
  explicit Report(std::string id) : id_(std::move(id)) {}

  /// Adds one metadata field (ε, δ, m, graph size, dataset name, ...).
  /// Values render as JSON numbers/strings/bools; insertion order is kept.
  Report& meta(std::string_view key, std::string_view value);
  Report& meta(std::string_view key, const char* value);
  Report& meta(std::string_view key, double value);
  Report& meta(std::string_view key, std::int64_t value);
  Report& meta(std::string_view key, std::uint64_t value);
  Report& meta(std::string_view key, bool value);

  /// Serializes the report from the *current* registry/trace state.
  void write(std::ostream& out) const;

  /// write() to `path` (truncating). Throws util::IoError on failure.
  void write_file(const std::string& path) const;

 private:
  std::string id_;
  // Pre-rendered JSON fragments, so meta() stays allocation-simple.
  std::vector<std::pair<std::string, std::string>> meta_;
};

/// Checks a parsed report against the schema above. Returns std::nullopt on
/// success, else a human-readable description of the first violation.
std::optional<std::string> validate_report_json(const util::JsonValue& doc);

/// Renders a parsed report as Chrome trace-event JSON
/// ({"traceEvents": […]}) for chrome://tracing or ui.perfetto.dev: a
/// process-name record, spans as "X" complete events (ts/dur in µs) laned
/// by thread, proc.sample events as "C" counter tracks, and every other
/// event as an "i" instant.
void write_chrome_trace(std::ostream& out, const util::JsonValue& report);

/// Structural check for the Chrome trace JSON write_chrome_trace emits.
[[nodiscard]] std::optional<std::string> validate_chrome_trace_json(
    const util::JsonValue& doc);

/// Human-readable timeline of a parsed report: a per-shard Gantt over the
/// publish.shard spans and the critical path through the span tree.
void write_trace_summary(std::ostream& out, const util::JsonValue& report);

}  // namespace sgp::obs
