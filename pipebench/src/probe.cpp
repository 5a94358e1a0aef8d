#include "probe.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <string_view>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"

namespace pipebench {
namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// The records the library already keeps for the benchmarked layers.
constexpr std::string_view kHistograms[] = {
    sgp::obs::names::kIoReadShard, sgp::obs::names::kPublishShard,
    sgp::obs::names::kPublishProject, sgp::obs::names::kPublishPerturb};
constexpr std::string_view kCounters[] = {sgp::obs::names::kIoEdgesRead,
                                          sgp::obs::names::kKmeansIterations,
                                          sgp::obs::names::kThreadpoolTasks};

}  // namespace

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

void release_free_heap() { malloc_trim(0); }

LibraryStats read_library_stats() {
  LibraryStats stats;
  for (const std::string_view name : kHistograms) {
    const std::string key = std::string(name) + ".seconds";
    stats[key] = sgp::obs::histogram(key).snapshot().sum;
  }
  for (const std::string_view name : kCounters) {
    stats[std::string(name)] =
        static_cast<double>(sgp::obs::counter(name).value());
  }
  return stats;
}

SpanRecorder::SpanRecorder() : epoch_(wall_now()) {}

std::size_t SpanRecorder::open(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.parent = pass_span_;
  span.pass = current_pass_;
  span.library = read_library_stats();  // turned into deltas by close()
  span.start = wall_now() - epoch_;
  spans_.push_back(std::move(span));
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  SpanRecord& span = spans_[index];
  span.end = wall_now() - epoch_;
  for (const auto& [key, value] : read_library_stats()) {
    span.library[key] = value - span.library[key];
  }
}

void SpanRecorder::begin_pass(int pass) {
  current_pass_ = pass;
  pass_span_ = -1;
  if (!enabled_) return;
  pass_span_ = static_cast<int>(open("bench.pass"));
}

void SpanRecorder::end_pass() {
  if (pass_span_ >= 0) close(static_cast<std::size_t>(pass_span_));
}

std::vector<SpanRecord> SpanRecorder::last_pass() const {
  if (pass_span_ < 0) return {};
  return {spans_.begin() + pass_span_, spans_.end()};
}

void SpanRecorder::write_json(std::ostream& out) const {
  using sgp::util::json_number;
  std::string text = "{\"schema\": \"pipebench-spans-v1\", \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    text += (i == 0 ? "\n" : ",\n");
    text += "  {\"id\": " + std::to_string(i) + ", \"name\": ";
    sgp::util::append_json_string(text, s.name);
    text += ", \"pass\": " + std::to_string(s.pass) +
            ", \"parent\": " + std::to_string(s.parent) +
            ", \"start\": " + json_number(s.start) +
            ", \"end\": " + json_number(s.end) + ", \"library\": {";
    for (auto it = s.library.begin(); it != s.library.end(); ++it) {
      if (it != s.library.begin()) text += ", ";
      sgp::util::append_json_string(text, it->first);
      text += ": " + json_number(it->second);
    }
    text += "}}";
  }
  text += "\n]}\n";
  out << text;
}

}  // namespace pipebench
