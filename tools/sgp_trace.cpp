// sgp_trace — timeline inspection for observability reports.
//
//   sgp_trace --report metrics.json [--chrome trace.json] [--summary]
//   sgp_trace --validate-chrome trace.json
//
// Reads the "sgp-obs-report v1" document any sgp_* tool writes with
// --metrics-out, validates it against the schema (obs/report.hpp), and
// renders:
//
//   --chrome <path>   Chrome trace-event / Perfetto-compatible JSON: spans
//                     as complete ("X") events laned by thread, lifecycle
//                     events as instants, resource samples as counter
//                     tracks. Load in chrome://tracing or ui.perfetto.dev.
//   --summary         human-readable timeline on stdout: a per-shard Gantt
//                     chart and the critical path through the span tree.
//
// With neither flag the report is validated and acknowledged — the
// schema-check mode CI uses. --validate-chrome structurally checks a Chrome
// trace file (the counterpart of sgp_bench_check for timeline exports) and
// shares its exit-code contract: 0 ok, 3 on the first invalid file.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/report.hpp"
#include "tool_common.hpp"
#include "util/errors.hpp"
#include "util/json.hpp"

namespace {

sgp::util::JsonValue parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw sgp::util::IoError("cannot open " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return sgp::util::parse_json(buf.str());
}

}  // namespace

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  const std::string report_path = args.get_string("report", "");
  const std::string validate_chrome = args.get_string("validate-chrome", "");
  if (report_path.empty() && validate_chrome.empty()) {
    std::fprintf(stderr,
                 "usage: %s --report metrics.json "
                 "[--chrome trace.json] [--summary]\n"
                 "       %s --validate-chrome trace.json\n",
                 args.program().c_str(), args.program().c_str());
    return sgp::tools::kExitUsage;
  }
  return sgp::tools::run_tool([&]() -> int {
    if (!validate_chrome.empty()) {
      const sgp::util::JsonValue doc = parse_file(validate_chrome);
      if (const auto err = sgp::obs::validate_chrome_trace_json(doc)) {
        throw sgp::util::ParseError(validate_chrome + ": " + *err);
      }
      std::fprintf(stderr, "%s: ok\n", validate_chrome.c_str());
      return sgp::tools::kExitOk;
    }

    const sgp::util::JsonValue report = parse_file(report_path);
    if (const auto err = sgp::obs::validate_report_json(report)) {
      throw sgp::util::ParseError(report_path + ": " + *err);
    }

    const std::string chrome_path = args.get_string("chrome", "");
    if (!chrome_path.empty()) {
      std::ofstream out(chrome_path, std::ios::binary | std::ios::trunc);
      if (!out.good()) {
        throw sgp::util::IoError("cannot open " + chrome_path);
      }
      sgp::obs::write_chrome_trace(out, report);
      out.flush();
      if (!out.good()) {
        throw sgp::util::IoError("failed writing " + chrome_path);
      }
      std::fprintf(stderr, "chrome trace written to %s\n",
                   chrome_path.c_str());
    }
    if (args.get_bool("summary", false)) {
      sgp::obs::write_trace_summary(std::cout, report);
    }
    if (chrome_path.empty() && !args.get_bool("summary", false)) {
      std::fprintf(stderr, "%s: ok\n", report_path.c_str());
    }
    return sgp::tools::kExitOk;
  });
}
