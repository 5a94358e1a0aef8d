// sgp_publish — command-line publisher: edge list in, DP release out.
//
//   sgp_publish --edges graph.txt --out release.bin
//               [--epsilon 1.0] [--delta 1e-6] [--dim 100]
//               [--projection gaussian|achlioptas] [--seed 7] [--streaming]
//               [--kernel auto|scalar|generic|avx2|avx512]
//               [--shard-rows R | --max-memory-mb MB] [--threads T]
//               [--no-resume] [--io-attempts K]
//               [--ledger budget.ledger --budget-epsilon 10 --budget-delta 1e-5]
//               [--metrics-out metrics.json [--metrics-format prometheus]]
//               [--trace]
//
// --streaming is an alias for the out-of-core path below with a shard
// height of ceil(n/4) (4 shards): the graph is never materialized and the
// output bytes are identical either way.
//
// --kernel selects the value-generation kernel (docs/scaling.md). The
// default ("auto") honours SGP_FORCE_KERNEL and otherwise stays on the
// byte-stable scalar path; "avx2"/"avx512"/"generic" opt a gaussian
// release into the vectorized polynomial mapping, which is recorded in
// the release header ("counter-v1-simd") so reconstruction regenerates
// the same projection on any machine.
//
// With --shard-rows (or --max-memory-mb, which derives a shard height from
// a memory budget — docs/scaling.md) the release is produced out of core:
// the graph is never materialized, row shards are built one at a time and
// append to the release file one by one, still byte-identical to the other
// paths. A crash mid-shard leaves a `<out>.ckpt` checkpoint; rerunning the
// same command resumes at the last complete shard (--no-resume starts
// over). Combined with --ledger, a resumed run finishes the already-charged
// release instead of charging a new one.
//
// With --ledger the release is charged against a crash-safe budget ledger:
// repeated invocations against the same ledger accumulate spent (ε, δ), and
// once the total cap (--budget-epsilon/--budget-delta) would be exceeded the
// tool refuses with exit code 4 and publishes nothing. See
// docs/robustness.md for the ledger format and recovery semantics.
//
// Parallelism is threads inside one process (--threads). The removed
// multi-process flags (--workers, --lease-timeout, --worker-fault-spec and
// the hidden --worker) are refused with a usage error rather than ignored,
// since ignoring --workers would silently publish in memory.
#include <cstdio>
#include <filesystem>
#include <optional>

#include "core/serialization.hpp"
#include "core/session.hpp"
#include "core/sharded_publish.hpp"
#include "graph/io.hpp"
#include "graph/shard_loader.hpp"
#include "obs/metric_names.hpp"
#include "obs/scoped_timer.hpp"
#include "random/kernel_variant.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"

int main(int argc, char** argv) {
  const sgp::util::CliArgs args(argc, argv);
  for (const char* removed :
       {"workers", "lease-timeout", "worker-fault-spec", "worker"}) {
    if (args.has(removed)) {
      std::fprintf(stderr,
                   "usage error: --%s was removed with the multi-process "
                   "publish; publish out of core with --shard-rows R (or "
                   "--max-memory-mb MB) and in parallel with --threads T\n",
                   removed);
      return sgp::tools::kExitUsage;
    }
  }
  const std::string edges_path = args.get_string("edges", "");
  const std::string out_path = args.get_string("out", "release.bin");
  if (edges_path.empty()) {
    std::fprintf(stderr,
                 "usage: %s --edges graph.txt --out release.bin "
                 "[--epsilon E] [--delta D] [--dim M] "
                 "[--projection gaussian|achlioptas] [--seed S] "
                 "[--kernel auto|scalar|generic|avx2|avx512] "
                 "[--streaming] [--shard-rows R | --max-memory-mb MB] "
                 "[--threads T] [--no-resume] [--io-attempts K] "
                 "[--ledger budget.ledger "
                 "--budget-epsilon E --budget-delta D] "
                 "[--metrics-out metrics.json] [--trace]\n",
                 args.program().c_str());
    return sgp::tools::kExitUsage;
  }
  sgp::tools::ObsScope obs_scope(args, "sgp_publish");

  return sgp::tools::run_tool([&]() -> int {
    const auto policy = args.get_bool("preserve-ids", false)
                            ? sgp::graph::IdPolicy::kPreserve
                            : sgp::graph::IdPolicy::kCompact;

    sgp::core::RandomProjectionPublisher::Options opt;
    opt.projection_dim = static_cast<std::size_t>(args.get_int("dim", 100));
    opt.params = {args.get_double("epsilon", 1.0),
                  args.get_double("delta", 1e-6)};
    opt.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
    if (args.get_string("projection", "gaussian") == "achlioptas") {
      opt.projection = sgp::core::ProjectionKind::kAchlioptas;
    }
    opt.kernel =
        sgp::random::parse_kernel_variant(args.get_string("kernel", "auto"));
    const std::string ledger_path = args.get_string("ledger", "");
    // The cap is the point of the ledger — refuse to default it silently.
    if (!ledger_path.empty() &&
        args.get_string("budget-epsilon", "").empty()) {
      throw sgp::util::PreconditionError("--ledger requires --budget-epsilon");
    }
    sgp::core::PublishingSession::Options sopt;
    sopt.publisher = opt;
    if (!ledger_path.empty()) {
      sopt.total_budget = {args.get_double("budget-epsilon", 10.0),
                           args.get_double("budget-delta", 1e-5)};
    }

    const auto shard_rows_flag =
        static_cast<std::size_t>(args.get_int("shard-rows", 0));
    const auto max_memory_mb =
        static_cast<std::size_t>(args.get_int("max-memory-mb", 0));
    if (shard_rows_flag > 0 || max_memory_mb > 0 ||
        args.get_bool("streaming", false)) {
      // Out-of-core path: the graph is never materialized — the reader
      // parses the file once, spilling the resolved edges (8 bytes per
      // edge record) to an anonymous temporary file, and each row shard is
      // built from that spill for publish_sharded.
      sgp::obs::ScopedTimer scan_timer(sgp::obs::names::kToolLoadGraph);
      sgp::graph::EdgeListShardReader reader(edges_path, policy);
      std::fprintf(stderr, "scanned %zu nodes / %zu edge records in %.2fs\n",
                   reader.num_nodes(), reader.edge_records(),
                   scan_timer.stop());

      sgp::obs::ScopedTimer publish_timer(sgp::obs::names::kToolPublish);
      sgp::core::ShardedPublishOptions shard_opt;
      shard_opt.publish = opt;
      if (shard_rows_flag > 0) {
        shard_opt.shard_rows = shard_rows_flag;
      } else if (max_memory_mb > 0) {
        shard_opt.shard_rows = sgp::core::shard_rows_for_memory(
            max_memory_mb, opt.projection_dim);
      } else {
        // --streaming: 4 shards, so one shard's tile is a quarter of the
        // in-memory release.
        constexpr std::size_t kStreamingShards = 4;
        shard_opt.shard_rows = std::max<std::size_t>(
            1, (reader.num_nodes() + kStreamingShards - 1) / kStreamingShards);
      }
      shard_opt.threads =
          static_cast<std::size_t>(args.get_int("threads", 0));
      shard_opt.resume = !args.get_bool("no-resume", false);
      // Fail-fast on shard-IO errors unless asked to retry.
      shard_opt.io_retry.max_attempts =
          static_cast<std::size_t>(args.get_int("io-attempts", 1));

      // A leftover checkpoint means the last charged release never
      // finished: finish it under its original (already-paid) options
      // instead of charging the budget a second time.
      const bool unfinished = std::filesystem::exists(out_path + ".ckpt");
      std::optional<sgp::core::PublishingSession> session;
      if (!ledger_path.empty()) {
        session.emplace(sopt, ledger_path);
        const bool finish_last =
            shard_opt.resume && session->num_releases() > 0 && unfinished;
        shard_opt.publish =
            finish_last ? session->release_options(session->num_releases())
                        : session->begin_release();
      }

      const auto result =
          sgp::core::publish_sharded(reader, shard_opt, out_path);
      std::fprintf(stderr,
                   "published %s: %zu shards of %zu rows (%zu resumed) "
                   "under %s in %.2fs\n",
                   out_path.c_str(), result.shards_total,
                   shard_opt.shard_rows, result.shards_resumed,
                   shard_opt.publish.params.to_string().c_str(),
                   publish_timer.stop());
      if (session) {
        std::fprintf(stderr, "session now at %s (%.3f epsilon left)\n",
                     session->spent().to_string().c_str(),
                     session->remaining_epsilon());
      }
      return sgp::tools::kExitOk;
    }

    sgp::obs::ScopedTimer load_timer(sgp::obs::names::kToolLoadGraph);
    const auto graph = sgp::graph::read_edge_list_file(edges_path, policy);
    std::fprintf(stderr, "loaded %zu nodes / %zu edges in %.2fs\n",
                 graph.num_nodes(), graph.num_edges(), load_timer.stop());

    sgp::obs::ScopedTimer publish_timer(sgp::obs::names::kToolPublish);
    if (!ledger_path.empty()) {
      sgp::core::PublishingSession session(sopt, ledger_path);
      std::fprintf(stderr, "ledger %s: %zu prior releases, spent %s\n",
                   ledger_path.c_str(), session.num_releases(),
                   session.spent().to_string().c_str());
      const auto release = session.publish(graph);
      sgp::core::save_published_file(release, out_path);
      std::fprintf(stderr,
                   "published %s; session now at %s (%.3f epsilon left)\n",
                   out_path.c_str(), session.spent().to_string().c_str(),
                   session.remaining_epsilon());
      return sgp::tools::kExitOk;
    }
    const auto release =
        sgp::core::RandomProjectionPublisher(opt).publish(graph);
    sgp::core::save_published_file(release, out_path);
    std::fprintf(stderr, "published %s under %s in %.2fs\n", out_path.c_str(),
                 opt.params.to_string().c_str(), publish_timer.stop());
    return sgp::tools::kExitOk;
  });
}
