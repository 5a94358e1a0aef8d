// sgp_pipebench: end-to-end and per-layer benchmark of the libsgp pipeline.
//
//   sgp_pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --workdir <dir> [--trace-out <file>] [--size full|tiny]
//                 [--doctor none|zero-noise|flip-byte]
//
// Sets the workload up three times (setup_s is the median), then runs
// passes until --seconds have elapsed, checking every release. With
// --trace 0 every pass runs untraced and the end-to-end metrics are
// reported; with --trace 1 passes alternate untraced/traced, the traced
// ones record layer spans and the library's own counters, and the
// per-layer metrics are reported. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --size tiny and --doctor exist for the self-test (tests/selftest.py).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "checks.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace pipebench {
namespace {

constexpr int kSetups = 3;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (tests/selftest.py holds them to it).
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"}};

// cpu_s is the untraced passes' CPU time. It heads the unbounded list
// because on the shared 4-vCPU reference host it drifts more between runs
// than any allowed bound (README.md, "Measured at this commit").
constexpr MetricDef kCpu{"cpu_s", "s"};
constexpr MetricDef kPerLayer[] = {
    kCpu,
    {"graph.read_edges.s", "s"},
    {"graph.read_edges.edges_per_s", "edges/s"},
    {"graph.adjacency.s", "s"},
    {"graph.shard_scan.s", "s"},
    {"graph.read_shard.s", "s"},
    {"graph.parse_passes", "passes"},
    {"core.publish.s", "s"},
    {"core.project.s", "s"},
    {"core.perturb.s", "s"},
    {"core.project.gflop_s", "GFLOP/s"},
    {"core.publish_sharded.s", "s"},
    {"core.shard_compute.s", "s"},
    {"core.save.s", "s"},
    {"core.save.mb_per_s", "MiB/s"},
    {"core.load.s", "s"},
    {"linalg.embed.s", "s"},
    {"cluster.kmeans.s", "s"},
    {"cluster.kmeans.iterations", "count"},
    {"ranking.rank.s", "s"},
    {"util.pool_tasks", "count"},
    {"bench.coverage", "ratio"},
    {"bench.trace_overhead", "ratio"},
};

struct Args {
  WorkloadConfig workload;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  Doctor doctor = Doctor::kNone;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "sgp_pipebench: %s\nusage: sgp_pipebench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-out <file>] [--size full|tiny] "
               "[--doctor none|zero-noise|flip-byte]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const std::string& key, bool required) {
    const auto it = flags.find(key);
    if (it == flags.end()) {
      if (required) usage("missing --" + key);
      return std::string();
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };
  try {
    args.workload.name = take("workload", true);
    args.workload.seed = std::stoull(take("seed", true));
    args.seconds = std::stod(take("seconds", true));
    const std::string trace = take("trace", true);
    if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
    args.trace = trace == "1";
    args.workload.workdir = take("workdir", true);
    args.trace_out = take("trace-out", false);
    const std::string size = take("size", false);
    if (!size.empty() && size != "full" && size != "tiny") {
      usage("--size must be full or tiny");
    }
    args.workload.tiny = size == "tiny";
    const std::string doctor = take("doctor", false);
    args.doctor = doctor.empty() ? Doctor::kNone : parse_doctor(doctor);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  if (!flags.empty()) usage("unknown flag --" + flags.begin()->first);
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// Per-layer metrics of one traced pass, from its spans (pass span first).
std::map<std::string, double> layer_metrics(
    const std::vector<SpanRecord>& spans, const WorkloadFacts& facts) {
  const SpanRecord& pass = spans.front();
  std::map<std::string, double> seconds;
  std::map<std::string, LibraryStats> library;
  double covered = 0.0;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    seconds[spans[i].name] += spans[i].end - spans[i].start;
    library[spans[i].name] = spans[i].library;
    covered += spans[i].end - spans[i].start;
  }
  const auto span_s = [&](const char* name) {
    const auto it = seconds.find(name);
    return it == seconds.end() ? 0.0 : it->second;
  };
  const auto pass_lib = [&](const char* key) {
    const auto it = pass.library.find(key);
    return it == pass.library.end() ? 0.0 : it->second;
  };
  const auto rate = [](double amount, double s) {
    return s > 0.0 ? amount / s : 0.0;
  };

  std::map<std::string, double> m;
  m["graph.read_edges.s"] = span_s("graph.read_edges");
  m["graph.read_edges.edges_per_s"] =
      rate(facts.edge_records, m["graph.read_edges.s"]);
  m["graph.adjacency.s"] = span_s("graph.adjacency");
  m["graph.shard_scan.s"] = span_s("graph.shard_scan");
  // The scan in the shard reader's constructor records io.read_shard too;
  // only the deltas inside publish_sharded are shard loads.
  LibraryStats& sharded = library["core.publish_sharded"];
  m["graph.read_shard.s"] = sharded["io.read_shard.seconds"];
  m["graph.parse_passes"] =
      facts.edge_records > 0.0 ? pass_lib("io.edges_read") / facts.edge_records
                               : 0.0;
  m["core.publish.s"] = span_s("core.publish");
  m["core.project.s"] = pass_lib("publish.project.seconds");
  m["core.perturb.s"] = pass_lib("publish.perturb.seconds");
  // Computed, not counted: 2 flops per nonzero per projected column.
  m["core.project.gflop_s"] =
      rate(2.0 * facts.nnz * facts.projection_dim * 1e-9, m["core.project.s"]);
  m["core.publish_sharded.s"] = span_s("core.publish_sharded");
  m["core.shard_compute.s"] =
      sharded["publish.shard.seconds"] - m["graph.read_shard.s"];
  m["core.save.s"] = span_s("core.save");
  m["core.save.mb_per_s"] =
      rate(facts.release_bytes / (1024.0 * 1024.0), m["core.save.s"]);
  m["core.load.s"] = span_s("core.load");
  m["linalg.embed.s"] = span_s("linalg.embed");
  m["cluster.kmeans.s"] = span_s("cluster.kmeans");
  m["cluster.kmeans.iterations"] = pass_lib("kmeans.iterations");
  m["ranking.rank.s"] = span_s("ranking.rank");
  m["util.pool_tasks"] = pass_lib("threadpool.tasks");
  m["bench.coverage"] = rate(covered, pass.end - pass.start);
  return m;
}

void print_json_metric(bool first, const MetricDef& def, double value) {
  std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
              first ? "" : ", ", def.name,
              sgp::util::json_number(value).c_str(), def.unit);
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload);

  std::vector<double> setup_times;
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = wall_now();
    workload->setup();
    setup_times.push_back(wall_now() - t0);
  }
  if (!reset_peak_rss()) {
    std::fprintf(stderr, "sgp_pipebench: cannot reset VmHWM via "
                         "/proc/self/clear_refs\n");
    return 3;
  }
  const WorkloadFacts facts = workload->facts();

  SpanRecorder spans;
  std::vector<double> walls, cpus, rss, traced_walls;
  std::map<std::string, std::vector<double>> layers;
  int attempted = 0;
  int failed = 0;
  const double start = wall_now();
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    sgp::obs::set_trace_enabled(traced);
    sgp::obs::set_metrics_enabled(traced);
    spans.set_enabled(traced);

    release_free_heap();
    reset_peak_rss();
    const double cpu0 = cpu_now();
    const double wall0 = wall_now();
    std::vector<std::string> failures;
    spans.begin_pass(pass);
    try {
      workload->pass(spans);
    } catch (const std::exception& e) {
      failures.push_back(std::string("pass threw: ") + e.what());
    }
    spans.end_pass();
    const double wall = wall_now() - wall0;
    const double cpu = cpu_now() - cpu0;
    const double peak = peak_rss_mib();

    sgp::obs::set_trace_enabled(false);
    sgp::obs::set_metrics_enabled(false);
    if (failures.empty()) {
      try {
        workload->doctor(args.doctor);
        failures = workload->check();
      } catch (const std::exception& e) {
        failures.push_back(std::string("check threw: ") + e.what());
      }
    }
    workload->end_pass();

    ++attempted;
    if (!failures.empty()) ++failed;
    for (const std::string& f : failures) {
      std::fprintf(stderr, "sgp_pipebench: pass %d failed: %s\n", pass,
                   f.c_str());
    }
    if (traced) {
      traced_walls.push_back(wall);
      for (const auto& [name, value] :
           layer_metrics(spans.last_pass(), facts)) {
        layers[name].push_back(value);
      }
      sgp::obs::clear_spans();
    } else {
      walls.push_back(wall);
      cpus.push_back(cpu);
      rss.push_back(peak);
    }
    std::fprintf(stderr,
                 "sgp_pipebench: pass %d %s wall %.3f s cpu %.3f s "
                 "peak %.1f MiB\n",
                 pass, traced ? "traced" : "untraced", wall, cpu, peak);

    const bool enough = wall_now() - start >= args.seconds;
    if (enough && (!args.trace || !traced_walls.empty())) break;
  }

  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    spans.write_json(out);
  }

  std::map<std::string, double> values;
  values["wall_s"] = median(walls);
  values["cpu_s"] = median(cpus);
  values["peak_rss_mb"] = median(rss);
  values["setup_s"] = median(setup_times);
  for (const auto& [name, samples] : layers) values[name] = median(samples);
  if (args.trace) {
    values["bench.trace_overhead"] =
        median(traced_walls) / values["wall_s"] - 1.0;
  }

  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("pipebench %s seed=%llu passes=%d (%zu untraced)\n",
              args.workload.name.c_str(),
              static_cast<unsigned long long>(args.workload.seed), attempted,
              walls.size());
  const auto print_row = [&](const MetricDef& def) {
    std::printf("  %-30s %14.6f %s\n", def.name, values[def.name], def.unit);
  };
  for (const MetricDef& def : kEndToEnd) print_row(def);
  if (!args.trace) print_row(kCpu);
  std::printf("  %-30s %14.6f fraction (%d of %d passes)\n", "fail_ratio",
              fail_ratio, failed, attempted);
  if (args.trace) {
    for (const MetricDef& def : kPerLayer) print_row(def);
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  bool first = true;
  const std::span<const MetricDef> defs =
      args.trace ? std::span<const MetricDef>(kPerLayer)
                 : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& def : defs) {
    print_json_metric(first, def, values[def.name]);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  const pipebench::Args args = pipebench::parse_args(argc, argv);
  try {
    return pipebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sgp_pipebench: %s\n", e.what());
    return 3;
  }
}
