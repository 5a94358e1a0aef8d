// Background process-resource sampler feeding the canonical proc.* gauges.
//
// Every observed tool process runs one sampler thread that periodically
// reads /proc/self/status (VmRSS, VmHWM), /proc/self/stat (utime/stime) and
// counts /proc/self/fd entries, then publishes:
//
//   gauge   proc.rss_mb         resident set size, MiB
//   gauge   proc.peak_rss_mb    peak RSS (VmHWM), MiB
//   gauge   proc.utime_seconds  user CPU time consumed so far
//   gauge   proc.stime_seconds  system CPU time consumed so far
//   gauge   proc.open_fds       open file descriptors
//   counter proc.samples        samples taken
//
// plus a proc.sample event per tick (obs/event_log.hpp), which the Chrome
// export renders as counter tracks.
//
// Off Linux (/proc absent) start() is a no-op that reports inactive.
// Sampling is wall-clock paced and self-terminating: stop() (or process
// exit via the owner's destructor) joins the thread.
#pragma once

#include <cstdint>

namespace sgp::obs {

class ResourceSampler {
 public:
  ResourceSampler() = default;
  ~ResourceSampler() { stop(); }

  ResourceSampler(const ResourceSampler&) = delete;
  ResourceSampler& operator=(const ResourceSampler&) = delete;

  /// Starts the sampler thread with the given tick interval. Takes one
  /// sample synchronously before returning (so even short-lived processes
  /// report their gauges), then samples in the background. No-op when
  /// already running, when metrics are disabled, or where /proc is
  /// unavailable.
  void start(std::uint64_t interval_ms = 200);

  /// Takes a final sample, stops and joins the thread. Idempotent.
  void stop();

  /// Whether the background thread is running.
  [[nodiscard]] bool active() const noexcept;

  /// One synchronous sample into the gauges (shared by the thread and by
  /// callers that want a reading without a thread, e.g. tests). Returns
  /// false where /proc is unavailable.
  static bool sample_once();

 private:
  struct Impl;
  Impl* impl_ = nullptr;
};

}  // namespace sgp::obs
