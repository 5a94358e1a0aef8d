#include "obs/resource_sampler.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/event_log.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/periodic.hpp"

#if defined(__unix__)
#include <unistd.h>
#endif

namespace sgp::obs {
namespace {

struct ProcReading {
  double rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  double utime_seconds = 0.0;
  double stime_seconds = 0.0;
  double open_fds = 0.0;
};

/// Parses "VmRSS:   12345 kB"-style lines; returns MiB.
double status_kb_to_mb(const std::string& line) {
  const char* p = line.c_str();
  while (*p != '\0' && (*p < '0' || *p > '9')) ++p;
  return std::strtod(p, nullptr) / 1024.0;
}

bool read_proc(ProcReading& out) {
#if defined(__unix__)
  {
    std::ifstream status("/proc/self/status");
    if (!status.good()) return false;
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmRSS:", 0) == 0) {
        out.rss_mb = status_kb_to_mb(line);
      } else if (line.rfind("VmHWM:", 0) == 0) {
        out.peak_rss_mb = status_kb_to_mb(line);
      }
    }
  }
  {
    std::ifstream stat("/proc/self/stat");
    if (!stat.good()) return false;
    std::string content;
    std::getline(stat, content);
    // Field 2 is "(comm)" and may contain spaces; resume after the last ')'.
    const std::size_t close = content.rfind(')');
    if (close == std::string::npos) return false;
    std::istringstream rest(content.substr(close + 1));
    std::string field;
    // Fields 3..13 precede utime (field 14) and stime (field 15).
    double utime_ticks = 0.0;
    double stime_ticks = 0.0;
    for (int i = 3; i <= 15 && (rest >> field); ++i) {
      if (i == 14) utime_ticks = std::strtod(field.c_str(), nullptr);
      if (i == 15) stime_ticks = std::strtod(field.c_str(), nullptr);
    }
    const double ticks_per_second =
        static_cast<double>(::sysconf(_SC_CLK_TCK));
    if (ticks_per_second > 0) {
      out.utime_seconds = utime_ticks / ticks_per_second;
      out.stime_seconds = stime_ticks / ticks_per_second;
    }
  }
  {
    std::error_code ec;
    std::filesystem::directory_iterator it("/proc/self/fd", ec), end;
    if (!ec) {
      std::size_t count = 0;
      for (; !ec && it != end; it.increment(ec)) ++count;
      out.open_fds = static_cast<double>(count);
    }
  }
  return true;
#else
  (void)out;
  return false;
#endif
}

std::string format_mb(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

// The ticker thread is owned by util::PeriodicTask — the one sanctioned
// thread owner outside src/util/ is src/util/ itself (sgp-lint R7), so the
// sampler holds the task rather than a raw std::thread + cv stop dance.
struct ResourceSampler::Impl {
  util::PeriodicTask ticker;
};

bool ResourceSampler::sample_once() {
  ProcReading r;
  if (!read_proc(r)) return false;
  gauge(names::kProcRssMb).set(r.rss_mb);
  gauge(names::kProcPeakRssMb).set(r.peak_rss_mb);
  gauge(names::kProcUtimeSeconds).set(r.utime_seconds);
  gauge(names::kProcStimeSeconds).set(r.stime_seconds);
  gauge(names::kProcOpenFds).set(r.open_fds);
  counter(names::kProcSamples).add();
  log_event(names::kEventProcSample,
            {{"rss_mb", format_mb(r.rss_mb)},
             {"peak_rss_mb", format_mb(r.peak_rss_mb)},
             {"utime_seconds", format_mb(r.utime_seconds)},
             {"stime_seconds", format_mb(r.stime_seconds)},
             {"open_fds", format_mb(r.open_fds)}});
  return true;
}

void ResourceSampler::start(std::uint64_t interval_ms) {
  if (impl_ != nullptr || !metrics_enabled()) return;
  if (!sample_once()) return;  // no /proc -> stay inactive
  impl_ = new Impl;
  impl_->ticker.start(interval_ms, [] { sample_once(); });
}

void ResourceSampler::stop() {
  if (impl_ == nullptr) return;
  impl_->ticker.stop();
  delete impl_;
  impl_ = nullptr;
  sample_once();  // final reading so short-lived phases still show peaks
}

bool ResourceSampler::active() const noexcept { return impl_ != nullptr; }

}  // namespace sgp::obs
