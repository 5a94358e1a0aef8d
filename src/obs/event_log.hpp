// Structured lifecycle events: a process-global, in-memory log.
//
// Spans time work and metrics count it; events mark the moments in between
// that a run report should show on its timeline — a budget-ledger charge
// (core/session.cpp), a resource sample (obs/resource_sampler.cpp). Each
// event carries the trace-clock time it was logged at, a canonical name
// (obs/metric_names.hpp) and flat string fields. obs::Report::write emits
// the log as the v1 report's "events" array, and the Chrome export
// (obs/report.hpp) renders it as instants and counter tracks.
//
// The log is gated exactly like the metrics registry: while metrics are
// disabled, log_event() costs one relaxed load.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sgp::obs {

/// One structured lifecycle event. `t` is seconds on the process trace
/// clock (obs/trace.hpp); fields are flat string key/values.
struct EventRecord {
  double t = 0.0;
  std::string name;
  std::vector<std::pair<std::string, std::string>> fields;
};

/// Records an event (no-op while metrics are disabled). Thread-safe.
void log_event(std::string_view name,
               std::vector<std::pair<std::string, std::string>> fields = {});

/// Every event logged so far, in log order.
[[nodiscard]] std::vector<EventRecord> collected_events();

/// Drops every logged event. For tests and per-run harness isolation.
void clear_event_log();

}  // namespace sgp::obs
