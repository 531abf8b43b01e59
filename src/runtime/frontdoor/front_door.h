// Cluster front door: consistent-hash routing over N InferenceServer
// shards, an idempotent result cache, and per-shard circuit breakers —
// the horizontal-scale layer above the single-process server.
//
//   submit(model, image[, class])
//        │  key = hash128(model id, input bits)
//        ▼
//   result cache ── bit-identical hit? ──> future ready, no shard touched
//        │ miss
//        ▼
//   consistent-hash ring (vnodes) ──> owner shard ── unhealthy? walk to the
//        │                                           next live shard
//        ▼
//   shard InferenceServer::submit(..., completion)
//        │
//        ▼
//   completion (on whichever thread settles the request — a shard worker,
//   or the submitting thread for a refusal or a shed): fills the cache,
//   trips/probes the breaker on rejections, fails a rejected request over
//   to the next live shard at once, and fulfils the front-door future the
//   caller holds. Requests complete in any order; no front-door thread.
//
// Guarantees, in the spirit of docs/serving.md:
//
//   * Bit-identity — a completed future holds logits bit-identical to
//     Session::run(image), whether they came from a shard or the cache
//     (the cache is keyed by the exact input bits).
//   * Stable placement — a given (model, input) key always routes to the
//     same shard while the live set is unchanged; a shard's death remaps
//     only its ~1/N of the key space (ring successor takeover), and its
//     recovery restores the original mapping exactly.
//   * No accepted request lost — as long as one shard is routable, a
//     rejected request is retried on the remaining live shards before its
//     future is allowed to fail; stop_shard()
//     itself drains the shard's accepted work before it goes dark.
//   * Any-order completion — a request resolves (or fails over, counted by
//     the breaker) as soon as its shard settles it, never behind earlier
//     requests on the same shard; a refusal at admission has done so before
//     submit() returns.
//   * Honest aggregation — ClusterStats latency percentiles are computed
//     from merged per-shard sample windows (LatencyRecorder::merge), never
//     by averaging per-shard percentiles.
//
// docs/frontdoor.md is the prose companion (ring mechanics, cache keying,
// breaker state machine, tuning cookbook); tests/test_frontdoor.cpp is the
// executable contract and runs under TSan in CI.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/frontdoor/hash_ring.h"
#include "runtime/frontdoor/options.h"
#include "runtime/frontdoor/result_cache.h"
#include "runtime/frontdoor/stats.h"
#include "runtime/server/inference_server.h"

namespace bswp::runtime {

class FrontDoor {
 public:
  /// Builds the ring and starts every shard (each an InferenceServer with
  /// options.server). The front door starts no thread of its own.
  explicit FrontDoor(const FrontDoorOptions& options = FrontDoorOptions{});
  /// shutdown(): resolves every accepted future, then stops every shard.
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Register a compiled network on EVERY shard (any shard can serve any
  /// model; the ring decides who serves which key). Same contract as
  /// InferenceServer::register_model — `net` is borrowed and must outlive
  /// the front door; duplicate ids throw.
  void register_model(const std::string& model_id, const CompiledNetwork& net);
  void register_model(const std::string& model_id, const CompiledNetwork& net,
                      const ModelConfig& config);

  /// Submit one request. Cache hits resolve the future before submit
  /// returns; misses route by consistent hash to a live shard. Admission
  /// failures surface as ServerRejected through the future (reason
  /// kUnhealthy when no routable shard exists). Safe from any number of
  /// threads.
  std::future<QTensor> submit(const std::string& model_id, Tensor image,
                              RequestClass cls = RequestClass::kNormal);

  /// Flush every shard and wait until every accepted front-door future is
  /// ready (failover retries included). Keeps accepting.
  void drain();
  /// Stop admission, drain, shut every shard down.
  /// Idempotent; called by the destructor.
  void shutdown();

  /// Shut one shard down (maintenance, or fault injection in tests/bench):
  /// the shard is routed around from this call on, its already-accepted
  /// requests drain and complete, and its ring segment falls to the
  /// successors. A stopped shard never comes back. Throws on a bad index.
  void stop_shard(int shard);

  /// Fleet snapshot: routing + health + cache counters, every shard's own
  /// ServerStats, and merged-window cluster latency percentiles.
  ClusterStats stats() const;
  /// Zero every routing/cache/latency counter (cache entries stay warm) and
  /// reset each shard's server stats. Health states are NOT reset — they
  /// are operational state, not statistics.
  void reset_stats();

  int shard_count() const;
  /// Shards currently routable (healthy or probing).
  int healthy_shard_count() const;
  /// Ring owner of (model, image) ignoring health — where the key lives
  /// when every shard is up. Deterministic; used by tests and ops tooling
  /// to reason about placement.
  int shard_for(const std::string& model_id, const Tensor& image) const;

 private:
  struct Pending;
  struct ShardState;

  /// Submit `p` to the first routable ring candidate it has not tried.
  /// With none left it fails: with `fault`, the last shard's error, or
  /// kUnhealthy on a first attempt (null `fault`).
  void forward(std::shared_ptr<Pending> p, std::exception_ptr fault);
  /// Shard `sid`'s completion for `p`: fills the cache, records latency,
  /// updates the breaker, and resolves `p` — or, on a shard fault (a
  /// ServerRejected), fails it over through forward().
  void on_shard_done(std::shared_ptr<Pending> p, int sid, QTensor logits,
                     std::exception_ptr error);
  /// Fulfil the caller's future, then retire `p` from pending_total_.
  void resolve(Pending& p, QTensor logits, std::exception_ptr error);
  /// First routable shard for `key` in ring-successor order, skipping
  /// `tried`; -1 when none. Also lazily moves cooled-down breakers to
  /// kProbing. Lock held.
  int route_locked(std::uint64_t key, Clock::time_point now, const std::vector<int>& tried);
  void breaker_success_locked(ShardState& st);
  void breaker_failure_locked(ShardState& st, bool shard_stopped, Clock::time_point now);

  FrontDoorOptions options_;
  /// Resolved time source: options_.server.clock, or the process steady
  /// clock — the one the shards read.
  const Clock* clock_ = nullptr;
  HashRing ring_;
  ResultCache cache_;

  mutable std::mutex mu_;    // routing, health, pending count, counters
  // Latency recorders live behind their own lock; never held with mu_
  // (same discipline as InferenceServer).
  mutable std::mutex stats_mu_;
  // pending_total_ reached zero, or shard_submits_ moved
  std::condition_variable drain_cv_;

  std::vector<std::unique_ptr<ShardState>> shards_;

  bool accepting_ = true;
  std::size_t pending_total_ = 0;   // front-door futures not yet resolved
  std::uint64_t shard_submits_ = 0; // shard submit() calls that returned

  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t ring_rebalances_ = 0;

  LatencyRecorder cache_latency_;  // cache-hit e2e, guarded by stats_mu_
};

}  // namespace bswp::runtime
