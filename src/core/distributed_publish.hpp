// Fault-tolerant multi-process publication: a coordinator, N worker
// processes, and a durable lease file.
//
// The mechanism's row-separability (core/sharded_publish.hpp) already makes
// shards independent; this layer exploits that across *processes*. The
// coordinator round-robins the shard plan over N spawned workers
// (util/subprocess.hpp). Each worker gets the coordinator's ShardJob record
// (`--config`) and publishes from it alone — it never calibrates — after
// checking the record's CRC and that its own scan of the file matches the
// recorded node and edge counts. It writes its shards' payload tiles to
// side files (`<out>.shard.<s>`, written to a temp name and renamed so
// existence ⇒ completeness). The coordinator
// verifies every payload (size and CRC-32) before vouching for it, then
// concatenates header + payloads in shard order — byte-identical to
// publish_sharded and the in-memory publish for the same options, whatever
// the worker topology or failure history.
//
// Failure handling, all observable through obs counters:
//   - worker exits uncleanly (crash, SIGKILL, fault injection): the
//     coordinator reclaims its outstanding leases (`reclaim` records,
//     publish.leases_reclaimed), salvages any payload that already verifies,
//     and respawns a replacement generation for the rest — bounded by
//     the retry policy's max_attempts generations per worker slot.
//   - worker goes silent (no heartbeat-file growth for
//     lease_timeout_seconds): the coordinator hard-kills it and proceeds as
//     above. The timeout must exceed the worst-case single-shard compute
//     time; heartbeats are written once per shard.
//   - spawn fails (proc.spawn fault point, missing binary) or a slot
//     exhausts its generations: the slot's shards fall back to in-process
//     computation in the coordinator. The degenerate case — every spawn
//     failing — degrades to an ordinary single-process publish that still
//     produces the exact release bytes.
//
// Durability: the lease file (`<out>.lease`) reuses the checkpoint idiom —
// magic line, the ShardJob config record tying it to one exact publication,
// then CRC-guarded `lease` / `reclaim` / `complete` records appended through
// util::DurableAppender (fsync per record). On resume, `complete` records
// whose payload files still verify are trusted and those shards are skipped
// (publish.shards_resumed). The lease file and payload files are deleted
// once the release is assembled. Format details in docs/scaling.md;
// failure matrix in docs/robustness.md.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_publish.hpp"
#include "util/cli.hpp"
#include "util/retry.hpp"

namespace sgp::core {

struct DistributedPublishOptions {
  /// Shard plan, publish knobs, per-worker threads, resume, io retry.
  ShardedPublishOptions sharded;
  /// Worker processes to spawn; 0 or 1 still runs the full protocol with
  /// one worker (and falls back in-process if it cannot spawn).
  std::size_t workers = 2;
  /// Path of the worker binary (normally the running sgp_publish itself).
  /// Empty = skip spawning entirely and compute every shard in-process.
  /// Workers scan the reader's path() under its policy().
  std::string worker_program;
  /// A worker whose heartbeat file stops growing for this long is presumed
  /// dead and hard-killed. Must exceed worst-case single-shard compute time.
  double lease_timeout_seconds = 30.0;
  /// Coordinator monitor-loop poll cadence.
  double poll_interval_seconds = 0.02;
  /// Generations budget per worker slot (max_attempts) and the backoff
  /// between respawns. Also used to retry lease-record appends
  /// (lease.acquire fault point).
  util::RetryPolicy retry;
  /// Extra environment for generation-0 spawns, keyed by worker slot —
  /// the chaos hook (e.g. {"SGP_FAULT_SPEC", "proc.worker.exit:after=1"}).
  /// Replacement generations spawn clean, mirroring a transient failure.
  std::map<std::size_t, std::vector<std::pair<std::string, std::string>>>
      worker_env;
  /// When non-empty, the cross-process observability plane is on: the
  /// coordinator mints a release trace id, opens its own event sidecar at
  /// `<prefix><pid>.jsonl` (obs/event_log.hpp), and hands every worker
  /// generation the prefix, the trace id and its parent span id via the
  /// SGP_OBS_SIDECAR / SGP_TRACE_ID / SGP_PARENT_SPAN environment variables
  /// so the sidecars merge into one "sgp-obs-report v2" document
  /// (obs/aggregate.hpp). Empty = no sidecars, no env overrides.
  std::string obs_sidecar_prefix;
};

struct DistributedPublishResult {
  std::size_t num_nodes = 0;
  std::size_t shards_total = 0;
  /// Shards proven complete by a prior run's lease file + payloads.
  std::size_t shards_resumed = 0;
  /// Worker processes actually spawned (all generations).
  std::size_t workers_spawned = 0;
  /// Worker processes that exited uncleanly or were presumed dead.
  std::size_t workers_lost = 0;
  /// Leases taken back from dead workers (salvaged or reassigned).
  std::size_t leases_reclaimed = 0;
  /// Shards the coordinator computed itself (fallback path).
  std::size_t shards_inprocess = 0;
  /// Release-level trace id (empty unless obs_sidecar_prefix was set).
  std::string trace_id;
};

/// Publishes the graph behind `reader` to `out_path` through the
/// coordinator/worker protocol above. Byte-identical to publish_sharded
/// with options.sharded. Throws util::PreconditionError on bad options and
/// util::IoError when the release itself cannot be written (worker failures
/// are absorbed, not thrown). Fault points: "proc.spawn", "lease.acquire",
/// "io.shard.write"; workers additionally run "proc.worker.exit",
/// "lease.heartbeat" and the io.shard.* points.
DistributedPublishResult publish_distributed(
    const graph::EdgeListShardReader& reader,
    const DistributedPublishOptions& options, const std::string& out_path);

/// Entry point for the hidden `--worker` mode of sgp_publish: publishes the
/// assigned `--shards` of the `--config` ShardJob record (util::ParseError,
/// exit 3, before any payload if the record fails its CRC or `--edges` does
/// not scan to its node and edge counts), writing each payload + heartbeat
/// records. Returns the process exit code (0 on success); IO failures
/// throw and take the tool's usual error paths.
int run_publish_worker(const util::CliArgs& args);

}  // namespace sgp::core
