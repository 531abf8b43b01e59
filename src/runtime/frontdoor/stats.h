// Observable cluster state: routing counters, per-shard health and dispatch
// share, cache effectiveness, and merged-window latency percentiles.
// Snapshots are plain value types; ClusterStats embeds each shard's own
// ServerStats so one stats() call tells the whole fleet story.
//
// Units follow the server stats conventions (src/runtime/server/stats.h):
// request counters count REQUESTS, every latency field is MICROSECONDS, and
// instantaneous fields are snapshots, not rates. Cluster latency summaries
// are computed from MERGED sample windows (LatencyRecorder::merge) — a
// cluster p99 is the p99 of all requests, not an average of shard p99s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/frontdoor/result_cache.h"
#include "runtime/latency_recorder.h"
#include "runtime/server/stats.h"

namespace bswp::runtime {

/// Breaker state of one shard (see BreakerOptions for the transitions).
enum class ShardHealth {
  kHealthy,    // routable, breaker closed
  kProbing,    // routable; cooldown elapsed, successes will close the breaker
  kUnhealthy,  // routed around; cooldown running
  kStopped,    // shard shut down (stop_shard / shutdown) — permanently out
};

inline const char* shard_health_name(ShardHealth h) {
  switch (h) {
    case ShardHealth::kHealthy: return "healthy";
    case ShardHealth::kProbing: return "probing";
    case ShardHealth::kUnhealthy: return "unhealthy";
    case ShardHealth::kStopped: return "stopped";
  }
  return "?";
}

struct ShardStats {
  int shard = 0;
  ShardHealth health = ShardHealth::kHealthy;
  /// Requests the router sent to this shard (primary + failover arrivals).
  std::uint64_t routed = 0;
  /// Routed requests whose ring owner was a different (dead) shard — the
  /// extra load this shard absorbed for its neighbours.
  std::uint64_t takeovers = 0;
  /// Shard-caused failures observed by the front door against this shard:
  /// rejections (client errors are not counted — they would fail
  /// anywhere).
  std::uint64_t failures = 0;
  /// Breaker transitions: healthy->unhealthy openings and probe-confirmed
  /// closings since start/reset_stats().
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_recoveries = 0;
  /// This shard's fraction of all routed requests (0 before any routing).
  /// With every shard healthy this converges to ~1/shards — a lasting skew
  /// means hot keys, not a router bug.
  double dispatch_share = 0.0;
  /// Front-door end-to-end latency (submit to future ready, µs) of
  /// requests served by this shard — routing, queueing and execution
  /// included; cache hits excluded (they never reach a shard).
  LatencySummary latency;
  /// The shard's own InferenceServer snapshot (queues, batches, affinity,
  /// autoscaler, per-model detail).
  ServerStats server;
};

struct ClusterStats {
  int shards = 0;
  /// Shards currently routable (healthy or probing).
  int healthy_shards = 0;
  /// Requests accepted by the front door (cache hits included).
  std::uint64_t submitted = 0;
  /// Futures fulfilled with logits (from cache or a shard).
  std::uint64_t completed = 0;
  /// Futures fulfilled with an error: client errors, and requests no
  /// routable shard was left to serve (ServerRejected kUnhealthy, or the
  /// last shard's rejection once every live shard has refused).
  std::uint64_t failed = 0;
  /// Mid-flight retries: requests re-submitted to another shard after a
  /// rejection. One request can retry more than once; each hop counts.
  std::uint64_t failovers = 0;
  /// Times the set of routable shards changed (a trip, recovery, or stop).
  /// Each change remaps ~1/shards of the key space — the ring's stability
  /// guarantee, pinned by tests/test_frontdoor.cpp.
  std::uint64_t ring_rebalances = 0;
  /// Result-cache effectiveness (all zero when disabled).
  ResultCacheStats cache;
  /// End-to-end latency over ALL completed requests — per-shard windows
  /// plus the cache-hit window, merged then summarized.
  LatencySummary latency;
  std::vector<ShardStats> shard_stats;  // index == shard id
};

}  // namespace bswp::runtime
