#include "core/sharded_publish.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "core/serialization.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "random/kernel_variant.hpp"
#include "util/check.hpp"
#include "util/crc32.hpp"
#include "util/durable.hpp"
#include "util/errors.hpp"
#include "util/fault_injection.hpp"
#include "util/fault_point_names.hpp"
#include "util/retry.hpp"
#include "util/thread_pool.hpp"

namespace sgp::core {
namespace {

constexpr char kCheckpointMagic[] = "sgp-shard-checkpoint v1";

/// A prepared release: the job, its config record and the header bytes.
struct ShardRelease {
  ShardJob job;
  std::string config;
  std::string header;
};

/// Validation (PreconditionError), the plan, the one core::calibrate call,
/// the publish.shard_rows / publish.sigma / graph.nodes gauges, the config
/// record and the header.
ShardRelease prepare_shard_job(const graph::EdgeListShardReader& reader,
                               const ShardedPublishOptions& options) {
  const std::size_t n = reader.num_nodes();
  const std::size_t m = options.publish.projection_dim;
  util::require(n >= 1, "shard job: graph must have nodes");
  util::require(m >= 1 && m <= n,
                "shard job: projection_dim must be in [1, n]");
  options.publish.params.validate();

  ShardRelease release;
  ShardJob& job = release.job;
  job.publish = options.publish;
  job.publish.kernel = random::resolve_normal_kernel(options.publish.kernel);
  job.calibration = calibrate(options.publish);
  job.plan = plan_shards(n, options.shard_rows);
  job.edge_records = reader.edge_records();
  job.id_policy = reader.policy();

  obs::gauge(obs::names::kPublishShardRows)
      .set(static_cast<double>(job.plan.shard_rows));
  obs::gauge(obs::names::kPublishSigma).set(job.calibration.sigma);
  obs::gauge(obs::names::kGraphNodes).set(static_cast<double>(n));

  release.config = job.config_line();
  // Header bytes are needed for checkpoint offsets before anything is
  // written; rendering through the shared encoder keeps them exact.
  std::ostringstream header;
  write_published_header(
      header, n, m, job.publish.params, job.calibration,
      job.publish.projection,
      projection_rng_for(job.publish.projection, job.publish.kernel));
  release.header = header.str();
  return release;
}

/// One shard step: under a publish.shard span, loads shard `s` (retried
/// under `io_retry`) and computes its rows into `tile` with publish_rows.
void compute_shard(const graph::EdgeListShardReader& reader,
                   const ShardJob& job, std::size_t s,
                   const util::RetryPolicy& io_retry,
                   std::vector<double>& tile, util::ThreadPool& pool) {
  const auto [r0, r1] = job.plan.shard_range(s);
  obs::ScopedTimer shard_timer(obs::names::kPublishShard);
  shard_timer.attr("shard", s).attr("rows", r1 - r0);
  // Loading a shard is idempotent (a fresh read of the loader's spill of
  // resolved edges, never of the text), so a transient read failure — the
  // io.shard.read fault point — is safely retried under the policy.
  const graph::ShardBlock shard = util::retry_with_backoff(
      io_retry, "shard load", [&] { return reader.load_shard(r0, r1); });
  publish_rows(shard.block(), r0, r1, job.publish, job.calibration, tile,
               pool);
}

}  // namespace

std::string ShardJob::config_line() const {
  std::ostringstream out;
  out.precision(17);
  out << "config nodes " << num_nodes() << " edges " << edge_records
      << " ids "
      << (id_policy == graph::IdPolicy::kPreserve ? "preserve" : "compact")
      << " dim " << publish.projection_dim << " shard_rows "
      << plan.shard_rows << " seed " << publish.seed << " epsilon "
      << publish.params.epsilon << " delta " << publish.params.delta
      << " sigma " << calibration.sigma << " sensitivity "
      << calibration.sensitivity << " projection "
      << to_string(publish.projection) << " normals "
      << (random::uses_polynomial_normals(publish.kernel) ? "polynomial"
                                                          : "scalar");
  return util::crc_frame(out.str());
}

ShardPlan plan_shards(std::size_t num_rows, std::size_t shard_rows) {
  ShardPlan plan;
  plan.num_rows = num_rows;
  plan.shard_rows =
      shard_rows == 0 ? std::max<std::size_t>(num_rows, 1) : shard_rows;
  return plan;
}

std::size_t shard_rows_for_memory(std::size_t max_memory_mb,
                                  std::size_t projection_dim) {
  util::require(projection_dim >= 1,
                "shard_rows_for_memory: projection_dim must be >= 1");
  const std::size_t tile_budget = max_memory_mb * (1ULL << 20) / 2;
  return std::max<std::size_t>(1, tile_budget / (projection_dim * sizeof(double)));
}

ShardedPublishResult publish_sharded(const graph::EdgeListShardReader& reader,
                                     const ShardedPublishOptions& options,
                                     const std::string& out_path) {
  const ShardRelease release = prepare_shard_job(reader, options);
  const ShardJob& job = release.job;
  const ShardPlan& plan = job.plan;
  const std::size_t m = job.publish.projection_dim;

  obs::ScopedTimer timer(obs::names::kPublishSharded);
  timer.attr("n", job.num_nodes()).attr("m", m)
      .attr("shards", plan.num_shards());

  // Release-file size once shards [0, s] are down.
  const auto bytes_through = [&](std::size_t s) {
    return release.header.size() +
           static_cast<std::uint64_t>(plan.shard_range(s).second) * m *
               sizeof(double);
  };
  const auto checkpoint_line = [&](std::size_t s) {
    const auto [r0, r1] = plan.shard_range(s);
    std::ostringstream line;
    line << "shard " << s << " rows " << r0 << " " << r1 << " bytes "
         << bytes_through(s);
    return util::crc_frame(line.str());
  };

  const std::string ckpt_path = out_path + ".ckpt";
  std::size_t completed = 0;
  if (options.resume) {
    // Every record is deterministic, so a checkpoint is trusted exactly as
    // far as it equals this run's expected lines: a torn tail, a bit flip
    // (CRC mismatch) or another job's config stops the scan there.
    std::ifstream in(ckpt_path, std::ios::binary);
    std::string line;
    if (std::getline(in, line) && line == kCheckpointMagic &&
        std::getline(in, line) && line == release.config) {
      while (completed < plan.num_shards() && std::getline(in, line) &&
             line == checkpoint_line(completed)) {
        ++completed;
      }
    }
    if (completed > 0) {
      // The release file must still hold every byte the checkpoint vouches
      // for; anything shorter means it was replaced or truncated → restart.
      const std::uint64_t bytes = bytes_through(completed - 1);
      std::error_code ec;
      const auto size = std::filesystem::file_size(out_path, ec);
      if (ec || size < bytes) {
        completed = 0;
      } else {
        std::filesystem::resize_file(out_path, bytes, ec);
        if (ec) {
          throw util::IoError("publish_sharded: cannot truncate " + out_path +
                              " to the last complete shard: " + ec.message());
        }
      }
    }
  }
  if (completed > 0) {
    obs::counter(obs::names::kPublishShardsResumed).add(completed);
  }

  std::ofstream out;
  if (completed > 0) {
    out.open(out_path, std::ios::binary | std::ios::app);
  } else {
    out.open(out_path, std::ios::binary | std::ios::trunc);
  }
  if (!out.good()) {
    throw util::IoError("publish_sharded: cannot open " + out_path);
  }
  if (completed == 0) {
    out.write(release.header.data(),
              static_cast<std::streamsize>(release.header.size()));
  }

  // The checkpoint log is rewritten up to the resume point (dropping any
  // torn tail), then appended to shard by shard. Records are appended only
  // after the shard's payload bytes are down, and each append fsyncs
  // (util::DurableAppender) — a machine crash can therefore never leave a
  // record the resume path trusts while the payload bytes it vouches for
  // were still in the page cache.
  util::DurableAppender ckpt;
  ckpt.open(ckpt_path, /*truncate=*/true);
  std::string prefix =
      std::string(kCheckpointMagic) + '\n' + release.config + '\n';
  for (std::size_t s = 0; s < completed; ++s) {
    prefix += checkpoint_line(s) + '\n';
  }
  ckpt.append(prefix);

  std::optional<util::ThreadPool> local_pool;
  if (options.threads > 0) local_pool.emplace(options.threads);
  util::ThreadPool& pool =
      local_pool ? *local_pool : util::global_pool();

  static obs::Counter& shards_done = obs::counter(obs::names::kPublishShards);

  std::vector<double> tile;
  for (std::size_t s = completed; s < plan.num_shards(); ++s) {
    compute_shard(reader, job, s, options.io_retry, tile, pool);

    util::fault_point(util::fault_points::kIoShardWrite);
    write_published_doubles(out, tile);
    out.flush();
    if (!out.good()) {
      throw util::IoError("publish_sharded: write failed on shard " +
                          std::to_string(s) + " of " + out_path);
    }

    util::fault_point(util::fault_points::kIoShardCheckpoint);
    ckpt.append_line(checkpoint_line(s));
    shards_done.add();
  }

  out.close();
  if (!out.good()) {
    throw util::IoError("publish_sharded: close failed on " + out_path);
  }
  ckpt.close();
  // Publication is complete; the checkpoint has nothing left to vouch for.
  std::error_code ec;
  std::filesystem::remove(ckpt_path, ec);

  ShardedPublishResult result;
  result.num_nodes = job.num_nodes();
  result.shards_total = plan.num_shards();
  result.shards_resumed = completed;
  return result;
}

}  // namespace sgp::core
