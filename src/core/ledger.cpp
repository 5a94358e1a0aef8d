#include "core/ledger.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define SGP_HAVE_FSYNC 1
#endif

namespace sgp::core {
namespace {

constexpr const char kMagic[] = "sgp-budget-ledger v1";

std::string record_line(const BudgetLedger::Record& r) {
  std::ostringstream out;
  out.precision(17);  // max_digits10: values must survive a round trip
  out << "release " << r.index << " epsilon " << r.epsilon << " delta "
      << r.delta << " sigma " << r.sigma << " sensitivity " << r.sensitivity;
  return util::crc_frame(out.str());
}

[[noreturn]] void corrupt(const std::string& path, std::size_t line_no,
                          const std::string& why) {
  throw util::LedgerCorruptError("budget ledger " + path + ": line " +
                                 std::to_string(line_no) + ": " + why);
}

BudgetLedger::Record parse_record(const std::string& path,
                                  std::size_t line_no,
                                  const std::string& line,
                                  std::uint64_t expected_index) {
  if (line.rfind(" crc ") == std::string::npos) {
    corrupt(path, line_no, "missing checksum");
  }
  std::string body;
  if (!util::crc_unframe(line, body)) {
    obs::counter(obs::names::kLedgerCrcFailures).add();
    corrupt(path, line_no, "checksum mismatch (record altered or truncated)");
  }

  BudgetLedger::Record r;
  std::istringstream fields(body);
  std::string t_release, t_eps, t_delta, t_sigma, t_sens;
  if (!(fields >> t_release >> r.index >> t_eps >> r.epsilon >> t_delta >>
        r.delta >> t_sigma >> r.sigma >> t_sens >> r.sensitivity) ||
      t_release != "release" || t_eps != "epsilon" || t_delta != "delta" ||
      t_sigma != "sigma" || t_sens != "sensitivity") {
    corrupt(path, line_no, "malformed record");
  }
  std::string extra;
  if (fields >> extra) corrupt(path, line_no, "trailing fields in record");
  if (r.index != expected_index) {
    corrupt(path, line_no,
            "record index " + std::to_string(r.index) + " out of order "
            "(expected " + std::to_string(expected_index) + ")");
  }
  return r;
}

}  // namespace

BudgetLedger::BudgetLedger(std::string path) : path_(std::move(path)) {
  util::require(!path_.empty(), "budget ledger: path must be non-empty");
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) return;  // fresh ledger

  std::ifstream in(path_, std::ios::binary);
  if (!in.good()) {
    throw util::IoError("budget ledger: cannot open " + path_);
  }
  std::string line;
  if (!std::getline(in, line)) {
    corrupt(path_, 1, "empty file (missing magic line)");
  }
  if (line != kMagic) {
    corrupt(path_, 1,
            "bad magic/version '" + line + "' (expected '" + kMagic + "')");
  }
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) corrupt(path_, line_no, "blank line inside ledger");
    records_.push_back(
        parse_record(path_, line_no, line, records_.size() + 1));
  }
  if (in.bad()) {
    throw util::IoError("budget ledger: read error on " + path_);
  }
  // A file ending without a final newline means the tail record was cut
  // mid-write; the checksum above already rejects a cut *within* the crc
  // field, and a cut before it loses " crc" and is rejected too, so at this
  // point every parsed record is intact.
  obs::counter(obs::names::kLedgerRecoveries).add();
  obs::counter(obs::names::kLedgerRecoveredRecords).add(records_.size());
}

void BudgetLedger::append(const Record& record) {
  static obs::Counter& attempts = obs::counter(obs::names::kLedgerAppendAttempts);
  static obs::Counter& appends = obs::counter(obs::names::kLedgerAppends);
  attempts.add();
  const util::WallTimer append_timer;
  util::fault_point(util::fault_points::kLedgerAppend);
  util::require(record.index == records_.size() + 1,
                "budget ledger: record index must be size() + 1");

  const std::string tmp = path_ + ".tmp";
  std::string content;
  content.reserve((records_.size() + 2) * 96);
  content += kMagic;
  content += '\n';
  for (const Record& r : records_) {
    content += record_line(r);
    content += '\n';
  }
  content += record_line(record);
  content += '\n';

  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw util::IoError("budget ledger: cannot open temp file " + tmp + ": " +
                        std::strerror(errno));
  }
  const bool wrote =
      std::fwrite(content.data(), 1, content.size(), f) == content.size() &&
      std::fflush(f) == 0;
#ifdef SGP_HAVE_FSYNC
  const bool synced = !wrote || ::fsync(::fileno(f)) == 0;
#else
  const bool synced = true;
#endif
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !synced || !closed) {
    std::remove(tmp.c_str());
    throw util::IoError("budget ledger: failed writing temp file " + tmp);
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    const int err = errno;
    std::remove(tmp.c_str());
    throw util::IoError("budget ledger: rename " + tmp + " -> " + path_ +
                        " failed: " + std::strerror(err));
  }
  records_.push_back(record);
  appends.add();
  if (obs::metrics_enabled()) {
    static obs::Histogram& latency = obs::histogram(obs::names::kLedgerAppendSeconds);
    latency.record(append_timer.seconds());
  }
}

}  // namespace sgp::core
