#include "obs/event_log.hpp"

#include <mutex>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace sgp::obs {
namespace {

struct LogState {
  std::mutex mutex;
  std::vector<EventRecord> events;
};

LogState& state() {
  static LogState instance;
  return instance;
}

}  // namespace

void log_event(std::string_view name,
               std::vector<std::pair<std::string, std::string>> fields) {
  if (!metrics_enabled()) return;
  static Counter& events_ctr = counter(names::kObsEvents);
  events_ctr.add();
  EventRecord record;
  record.t = trace_clock_seconds();
  record.name = std::string(name);
  record.fields = std::move(fields);

  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.events.push_back(std::move(record));
}

std::vector<EventRecord> collected_events() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.events;
}

void clear_event_log() {
  LogState& s = state();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.events.clear();
}

}  // namespace sgp::obs
