// Configuration for the cluster front door: how many shards, what is
// cached, and how shard failure is detected. Placement is a consistent-hash
// ring with 64 virtual nodes per shard, and a request whose owner shard is
// unhealthy or stopped fails over to the key's next live ring successor.
//
// Follows the options.h house rules: every field has a stated default and a
// stated interaction with its neighbours; docs/frontdoor.md is the prose
// companion and scripts/check_docs.sh keeps it honest.
#pragma once

#include <chrono>
#include <cstddef>

#include "runtime/server/options.h"

namespace bswp::runtime {

/// Per-shard circuit breaker. The hysteresis shape is the autoscaler's
/// (AutoscalerOptions): consecutive-observation streaks open/close the
/// breaker and a cooldown separates state changes, so one transient
/// rejection cannot flap a shard out of the ring.
///
///   healthy --(unhealthy_after consecutive shard rejections)--> unhealthy
///   unhealthy --(cooldown elapsed)--> probing (routable again)
///   probing --(healthy_after consecutive successes)--> healthy
///   probing --(any failure)--> unhealthy (cooldown restarts)
///
/// A stopped shard (InferenceServer no longer accepting) is routed around
/// immediately regardless of streaks — there is nothing to probe.
struct BreakerOptions {
  /// Consecutive shard-caused failures (rejections — never client errors
  /// like a bad input shape) that open the breaker
  /// (default 3, must be >= 1).
  int unhealthy_after = 3;
  /// Consecutive successes while probing that close it (default 2, >= 1).
  int healthy_after = 2;
  /// How long an open breaker holds before the shard may be probed again
  /// (default 50 ms, >= 0). Too short re-probes a sick shard with live
  /// traffic; too long leaves capacity parked after a blip.
  std::chrono::microseconds cooldown{50000};
};

struct FrontDoorOptions {
  /// InferenceServer shards owned by the front door (default 2, >= 1).
  /// Every registered model exists on every shard; the ring decides which
  /// shard serves which (model, input) key.
  int shards = 2;
  /// Configuration applied to every shard (workers, batching, queues,
  /// autoscaler — see ServerOptions). Shards are deliberately identical:
  /// heterogeneous fleets belong behind heterogeneous front doors. Its
  /// `clock` is the front door's time source too (breaker cooldowns,
  /// latency stamps).
  ServerOptions server;
  /// Result-cache entries retained (default 0 = disabled). Bit-identical
  /// repeat inputs are answered from the cache without touching a shard;
  /// see runtime/frontdoor/result_cache.h for the keying contract.
  std::size_t cache_capacity = 0;
  /// Failure-detection hysteresis (see BreakerOptions).
  BreakerOptions breaker;
};

}  // namespace bswp::runtime
