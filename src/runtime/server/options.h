// Configuration for the async inference server: how batches are formed, how
// dispatch slots are shared between models (priority), what happens when a
// model's request queue is full (backpressure), and how the live worker count
// tracks load (autoscaling).
//
// Every option here has a stated default and a stated interaction with its
// neighbours; docs/serving.md is the prose companion (semantics + tuning
// cookbook) and scripts/check_docs.sh keeps the two in sync with the tree.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "runtime/clock.h"

namespace bswp::runtime {

/// When the scheduler closes a batch for one model. A batch dispatches as
/// soon as `max_batch` requests are queued, or when the oldest queued request
/// has waited `max_delay` (whichever comes first), so light traffic pays at
/// most `max_delay` of batching latency and heavy traffic runs full batches.
struct BatchingPolicy {
  /// Largest batch the scheduler will form (default 8, must be >= 1). Also
  /// the per-dispatch quantum of the weighted scheduler: a model with
  /// priority weight w may dispatch up to w batches of up to `max_batch`
  /// requests per scheduling cycle.
  int max_batch = 8;
  /// Longest the oldest queued request may wait before a partial batch is
  /// forced out (default 2 ms; 0 dispatches immediately, trading batch size
  /// for latency). Ignored while drain()/shutdown() are flushing.
  std::chrono::microseconds max_delay{2000};
};

/// What submit() does when a model's bounded queue is full.
enum class QueuePolicy {
  kBlock,      // block the submitting thread until space frees (closed loop)
  kReject,     // fail the new request's future with ServerRejected
  kShedOldest, // fail the oldest queued request's future, admit the new one
};

/// Bounded per-model admission queue. Only requests waiting to be batched
/// count against `capacity`; dispatched batches are bounded separately by
/// the live worker count (the scheduler never hands out more batches than
/// there are free workers, so a saturated server backs requests up here).
struct QueueOptions {
  /// Queue slots, in requests (default 256, must be >= 1).
  std::size_t capacity = 256;
  /// Full-queue behavior (default kBlock). With kShedOldest, normal-class
  /// requests are evicted before high-class ones (see RequestClass).
  QueuePolicy policy = QueuePolicy::kBlock;
};

/// How the scheduler divides batch slots between models that are ready to
/// dispatch at the same time.
enum class SchedulePolicy {
  /// One batch per ready model per turn, in registration order. Every model
  /// gets an equal share of dispatch slots regardless of its traffic, so a
  /// hot model queues behind its own backlog while cold models idle.
  kRoundRobin,
  /// Weighted deficit round-robin over `ModelConfig::weight` (the default).
  /// Each scheduling cycle grants every model `weight` batch credits; ready
  /// models spend one credit per dispatched batch and the cycle ends when no
  /// ready model has credits left, so sustained dispatch shares converge to
  /// weight_i / sum(weights). Unused credits do not accumulate across cycles
  /// (no banked bursts), and every model with a non-empty queue receives
  /// credits every cycle — a weight-1 model can be slowed but never starved.
  /// With all weights equal (the default) this degenerates to fair
  /// round-robin.
  kWeightedDeficit,
};

/// Per-request priority class, within one model's queue.
enum class RequestClass {
  kNormal,  // FIFO order (default)
  /// Dispatched before every queued kNormal request of the same model (FIFO
  /// among kHigh). Under QueuePolicy::kShedOldest, kNormal requests are
  /// evicted first; when no kNormal request is queued, the oldest kHigh
  /// request is shed. Cross-model ordering is the scheduler's business
  /// (SchedulePolicy / ModelConfig::weight), not RequestClass's.
  kHigh,
};

/// Per-request submission knobs beyond the RequestClass: the session-serving
/// layer (runtime/sessions/) is the primary client, but any caller may use
/// them. Defaults reproduce the plain submit(model, image, cls) behavior.
struct SubmitOptions {
  /// Priority class within the model's queue (see RequestClass).
  RequestClass cls = RequestClass::kNormal;
  /// Session-affinity key (0 = none). Requests sharing a non-zero key are
  /// preferentially dispatched to the worker that last served that key for
  /// this model, keeping a stateful session's warm arena executor (and the
  /// CPU cache lines its weights occupy) on one worker across the sequential
  /// decode steps of a generation. A plain warm worker is the fallback; the
  /// scheduler never *waits* for the preferred worker — a busy preferred
  /// worker costs a session-affinity miss, not latency. Forget keys with
  /// InferenceServer::forget_affinity when the session closes.
  std::uint64_t affinity_key = 0;
  /// Completion deadline measured from admission (0 = none). A request
  /// still queued when its deadline elapses is purged by the scheduler and
  /// its future fails with ServerRejected::Reason::kDeadlineExpired — it
  /// never reaches a worker. Under ServerOptions::execution_aware_deadlines
  /// (the default) the deadline bounds *completion*, not just queueing: the
  /// scheduler purges a request as soon as its remaining slack no longer
  /// covers the model's estimated execution time (refuse-to-dispatch), and
  /// a dispatched batch whose every member's SLO has become unreachable is
  /// shed at the next layer boundary mid-run — those futures fail with the
  /// same kDeadlineExpired, and no partial result is ever observable. With
  /// execution_aware_deadlines = false the deadline bounds queue residency
  /// only and dispatched work always runs to completion (the pre-SLO
  /// behavior, kept for ablation — bench/bench_server.cpp measures the
  /// attainment gap).
  std::chrono::microseconds deadline{0};
};

/// Admission-driven autoscaling of the worker pool. Disabled by default:
/// the pool stays at `ServerOptions::workers`. When enabled, the scheduler
/// re-evaluates the live worker count every `interval` and grows/shrinks it
/// one worker at a time between `min_workers` and `max_workers`:
///
///   grow   when total queued requests exceed `up_queue_per_worker` per live
///          worker (or the end-to-end latency EWMA exceeds `up_latency_us`,
///          when set) for `up_consecutive` consecutive evaluations;
///   shrink when the queues are empty and at least one live worker is idle
///          for `down_consecutive` consecutive evaluations.
///
/// `cooldown` must elapse between any two scale events. The consecutive-
/// evaluation streaks plus the cooldown are the hysteresis: a load spike
/// shorter than `up_consecutive * interval` does not grow the pool, and a
/// step change settles at a stable count instead of oscillating (a grow
/// event resets the shrink streak and vice versa). Scale events and the
/// current/peak live count are observable in ServerStats.
struct AutoscalerOptions {
  /// Default false: worker count is fixed at ServerOptions::workers.
  bool enabled = false;
  /// Live-worker bounds (defaults 1 and 4; 1 <= min_workers <= max_workers).
  /// The server spawns `max_workers` threads up front — scaling changes how
  /// many are eligible for dispatch, never thread creation, so a grow event
  /// adds capacity immediately. A descaled ("parked") worker keeps its warm
  /// executors and is preferred again by affinity when rescaled.
  int min_workers = 1;
  int max_workers = 4;
  /// Evaluation cadence (default 5 ms, must be > 0). The scheduler wakes at
  /// least this often while autoscaling is enabled, even when idle.
  std::chrono::microseconds interval{5000};
  /// Grow when total queued requests > up_queue_per_worker * live workers
  /// (default 4.0, must be > 0). Think of it as "how many requests deep may
  /// the backlog get, per worker, before it buys another worker".
  double up_queue_per_worker = 4.0;
  /// Optional latency signal (microseconds; default 0 = disabled): also grow
  /// when the server-wide EWMA of end-to-end request latency (queueing
  /// included) exceeds this. Use it to scale on slow requests even when the
  /// queue-depth signal is quiet (shallow but expensive queues). Considered
  /// only while requests are queued — the EWMA freezes when traffic stops,
  /// and a stale reading must not hold an idle pool above min_workers.
  double up_latency_us = 0.0;
  /// Hysteresis streaks (defaults 2 and 4 evaluations, each >= 1). Shrink is
  /// deliberately slower than grow: adding a worker under pressure is cheap,
  /// while removing one too eagerly re-queues the next burst.
  int up_consecutive = 2;
  int down_consecutive = 4;
  /// Minimum gap between two scale events (default 20 ms, >= 0).
  std::chrono::microseconds cooldown{20000};
  /// Executor-cache eviction on parked workers (0 = never evict, the
  /// default). A worker left dispatch-ineligible ("parked") whose last
  /// batch completed more than `evict_after` ago drops its warm arena
  /// Executors — from a parked worker's point of view every model is cold,
  /// and its arenas are pure memory cost until a scale-up. Evicted
  /// executors rebuild lazily on the next dispatch (an affinity miss, never
  /// an error; logits are bit-identical after a re-warm). Counted in
  /// ServerStats::evicted_executors; resident bytes are
  /// ServerStats::warm_bytes.
  std::chrono::microseconds evict_after{0};
  /// Server-wide warm-arena budget in bytes (0 = unbounded). When the total
  /// arena bytes held by worker executor caches exceeds this, parked
  /// workers' caches are evicted oldest-idle-first until the total is back
  /// under budget. Live workers' caches are never evicted — the budget
  /// bounds parked memory, it does not starve dispatch.
  std::size_t max_warm_bytes = 0;
};

/// Per-model configuration (defaults come from ServerOptions; a latency-
/// critical model can run a shorter deadline, a shed-oldest queue and a
/// higher weight next to a throughput model that blocks).
struct ModelConfig {
  BatchingPolicy batching;
  QueueOptions queue;
  /// Relative dispatch share under SchedulePolicy::kWeightedDeficit
  /// (default 1, must be >= 1): batch credits granted per scheduling cycle.
  /// A weight-8 model next to three weight-1 models receives up to 8 of
  /// every 11 batch slots under saturation. Ignored by kRoundRobin.
  int weight = 1;
};

struct ServerOptions {
  /// Worker threads shared by every registered model (default 2, >= 1).
  /// Each worker lazily builds one arena Executor per model it actually
  /// serves, and the scheduler prefers placing a model on a worker that
  /// already holds its executor (see ModelStats affinity counters). With
  /// the autoscaler enabled this is the *initial* live count, clamped into
  /// [min_workers, max_workers].
  int workers = 2;
  /// Cross-model dispatch order (default kWeightedDeficit, which equals
  /// fair round-robin until a ModelConfig::weight is raised above 1).
  SchedulePolicy schedule = SchedulePolicy::kWeightedDeficit;
  /// Defaults for models registered without an explicit ModelConfig.
  BatchingPolicy batching;
  QueueOptions queue;
  /// Worker-pool autoscaling (default disabled — fixed `workers`).
  AutoscalerOptions autoscaler;
  /// Retained end-to-end latency samples per model (ring window; default
  /// 65536; 0 keeps every sample — fine for tests, unbounded for a
  /// long-running server).
  std::size_t latency_window = 1 << 16;
  /// Execution-aware SLO enforcement for SubmitOptions::deadline (default
  /// true). The server derives a per-layer execution-time estimate for each
  /// registered model from a one-time per-layer CostCounter capture priced
  /// with sim::host_profile() (calibrated against measured executor time as
  /// batches complete), then (a) refuses to dispatch a request whose
  /// remaining slack no longer covers its estimated execution — purged with
  /// kDeadlineExpired before wasting a worker — and (b) arms a CancelToken
  /// on every dispatched batch so in-flight work is shed at the next layer
  /// boundary once no member's SLO is reachable. false restores queue-
  /// residency-only deadlines (dispatched work runs to completion) for
  /// ablation.
  bool execution_aware_deadlines = true;
  /// Time source for every timed decision (batching windows, deadlines,
  /// autoscaler cadence, latency stamps). Null (the default) means the
  /// process steady clock; tests inject a runtime::ManualClock to make
  /// timing deterministic. Borrowed — must outlive the server.
  const Clock* clock = nullptr;
};

}  // namespace bswp::runtime
