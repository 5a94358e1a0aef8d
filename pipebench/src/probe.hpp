// Process-level probes and the benchmark-side span recorder.
//
// Everything here observes the library from outside: wall and CPU clocks,
// the kernel's resident-set high-water mark, and deltas of the counters and
// histograms the library already keeps. Nothing is instrumented inside
// libsgp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace pipebench {

/// Seconds on the monotonic clock.
[[nodiscard]] double wall_now();

/// User + system CPU seconds of the whole process (all threads).
[[nodiscard]] double cpu_now();

/// Resets the kernel's VmHWM to the current RSS (writes "5" to
/// /proc/self/clear_refs). Returns false when the kernel refuses.
bool reset_peak_rss();

/// VmHWM of this process in MiB, read from /proc/self/status.
[[nodiscard]] double peak_rss_mib();

/// Hands freed heap pages back to the kernel, so garbage from the set-up or
/// an earlier pass does not sit in the next pass's resident set.
void release_free_heap();

/// The library records the traced run copies, read as one flat map:
/// histogram sums in seconds under "<name>.seconds", counters by name.
using LibraryStats = std::map<std::string, double>;
[[nodiscard]] LibraryStats read_library_stats();

/// One benchmark-side span: a layer call (or a whole pass, parent -1).
struct SpanRecord {
  std::string name;
  double start = 0.0;  ///< seconds since the recorder was created
  double end = 0.0;
  int parent = -1;     ///< index into the recorder's spans, -1 for a pass
  int pass = 0;
  LibraryStats library;  ///< library-record deltas over the span
};

/// Records spans around layer calls when enabled; a disabled recorder just
/// runs the call. Spans stay in memory until write_json at the end of a run.
class SpanRecorder {
 public:
  SpanRecorder();

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens the root span of pass `pass`; layer spans nest under it.
  void begin_pass(int pass);
  void end_pass();

  /// Runs `call` as layer `name` of the open pass.
  template <typename Call>
  void layer(const std::string& name, Call&& call) {
    if (!enabled_) {
      call();
      return;
    }
    const std::size_t index = open(name);
    try {
      call();
    } catch (...) {
      close(index);
      throw;
    }
    close(index);
  }

  /// Spans of the most recent pass: the pass span first, then its layers.
  [[nodiscard]] std::vector<SpanRecord> last_pass() const;

  void write_json(std::ostream& out) const;

 private:
  std::size_t open(const std::string& name);
  void close(std::size_t index);

  bool enabled_ = false;
  double epoch_ = 0.0;
  int current_pass_ = -1;
  int pass_span_ = -1;
  std::vector<SpanRecord> spans_;
};

}  // namespace pipebench
