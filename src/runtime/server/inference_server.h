// Async inference server: request queue, dynamic cross-request batching,
// priority-weighted scheduling, worker affinity, backpressure, autoscaling,
// multi-network serving.
//
// This is the serving layer production traffic actually needs: individual
// requests arrive one at a time at unpredictable rates against many compiled
// models, and the server — not the caller — forms batches. Architecture:
//
//   submit(model, image[, class]) ─> per-model bounded queue ──┐
//   submit(model, image[, class]) ─> per-model bounded queue ──┤ scheduler
//                                                              │  thread
//   register_model(...)  adds a queue + priority weight        │
//                                                              ▼
//                        pick model: weighted deficit round-robin,
//                        max_batch/deadline
//                                                              │
//                        pick worker: prefer one whose executor
//                        cache is already warm for the model   │
//                                                              ▼
//                        per-worker dispatch slot ──> N live workers out of
//                        `max_workers` threads; the autoscaler moves the
//                        live count with the queue-depth signal
//
// Batching: a model's batch closes when `max_batch` requests are queued or
// the oldest has waited `max_delay`, whichever is first. Ready models are
// drained by weighted deficit round-robin, where
// ModelConfig::weight is the model's batch-credit grant per scheduling cycle,
// so a hot model gets proportionally more dispatch slots while a weight-1
// model still dispatches every cycle (never starves). Within one model's
// queue, RequestClass::kHigh requests dispatch before kNormal ones. The
// scheduler only dispatches while a live worker is free — when all are busy,
// requests back up in the bounded per-model queues, which is where
// backpressure (QueuePolicy::{kBlock, kReject, kShedOldest}) engages and
// what the autoscaler reads as its grow signal.
//
// Results: every request settles through one Completion, called exactly
// once with the logits or the error and with no server lock held — on the
// worker that ran it, the scheduler (deadline purge), or the submitting
// thread (refusal, or the kShedOldest victim its arrival displaced). The
// logits are bit-identical to Session::run / Executor::run for the same
// image (the kernels are deterministic integer code and each request runs
// on one arena executor). A request that fails (bad shape, rejected, shed,
// shutdown) settles with an exception — ServerRejected for admission
// failures — and never disturbs its batch neighbours. submit(...) →
// std::future is a thin wrapper whose completion fulfils a promise, so the
// future and callback paths run the same code.
//
// Shutdown: shutdown() (and the destructor) stops admission, flushes every
// queue ignoring batching deadlines, waits for in-flight work and for every
// completion to return, then joins the threads — no submitted request is
// ever silently dropped. drain() does the same flush-and-wait while keeping
// the server accepting.
//
// docs/serving.md documents the semantics precisely (with a tuning
// cookbook); docs/architecture.md places this layer in the full pipeline.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/compressed_network.h"
#include "runtime/server/options.h"
#include "runtime/server/stats.h"

namespace bswp::runtime {

/// Delivered through a request's future when admission control refuses it:
/// a kReject overflow, a kShedOldest eviction, a shutdown-time refusal, a
/// SubmitOptions::deadline that elapsed in queue, or — through the cluster
/// front door — a request no routable shard is left to serve.
class ServerRejected : public std::runtime_error {
 public:
  enum class Reason { kQueueFull, kShed, kShutdown, kUnhealthy, kDeadlineExpired };
  ServerRejected(Reason reason, const std::string& what)
      : std::runtime_error(what), reason_(reason) {}
  Reason reason() const { return reason_; }

 private:
  Reason reason_;
};

class InferenceServer {
 public:
  /// How one request settles: called exactly once, with the logits and a
  /// null error, or with the error (logits empty). It runs with no server
  /// lock held and may call back into this server (stats(), submit()), but
  /// must not throw and must not block on the server — drain(), shutdown()
  /// or a kBlock submit into a full queue from a completion can deadlock.
  using Completion = std::function<void(QTensor logits, std::exception_ptr error)>;

  /// Starts the scheduler and worker threads immediately (`workers` threads,
  /// or `autoscaler.max_workers` when autoscaling is enabled — scaling only
  /// changes how many are dispatch-eligible). Per-model arena executors are
  /// built lazily, the first time a worker serves that model.
  explicit InferenceServer(const ServerOptions& options = ServerOptions{});
  /// shutdown(): drains every accepted request, then joins the threads.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Register a compiled network under `model_id` with the server-default
  /// (or an explicit) batching/queue/weight config. `net` is borrowed and
  /// must outlive the server. Throws std::invalid_argument on a duplicate
  /// id. Models may be registered while the server is running.
  void register_model(const std::string& model_id, const CompiledNetwork& net);
  void register_model(const std::string& model_id, const CompiledNetwork& net,
                      const ModelConfig& config);

  /// Submit one request. Returns immediately (kBlock: after space frees)
  /// with a future for the quantized logits. RequestClass::kHigh requests
  /// dispatch before queued kNormal requests of the same model and are shed
  /// last. Throws std::invalid_argument for an unknown model id; admission
  /// failures are delivered through the future as ServerRejected. Safe from
  /// any number of threads.
  std::future<QTensor> submit(const std::string& model_id, Tensor image,
                              RequestClass cls = RequestClass::kNormal);
  /// Submit with the full per-request option set: priority class plus an
  /// optional session-affinity key (sticky worker placement for stateful
  /// sequences) and an optional queue-residency deadline (expired requests
  /// fail with ServerRejected::Reason::kDeadlineExpired before reaching a
  /// worker). See SubmitOptions for the exact semantics of each knob.
  std::future<QTensor> submit(const std::string& model_id, Tensor image,
                              const SubmitOptions& options);
  /// The one submission path the future overloads wrap: `done` receives the
  /// outcome (see Completion) — possibly before this call returns, for a
  /// refusal. Throws std::invalid_argument for an unknown model id, and
  /// `done` is then never called.
  void submit(const std::string& model_id, Tensor image, const SubmitOptions& options,
              Completion done);

  /// Drop the sticky-worker mapping for `affinity_key` on `model_id` (no-op
  /// for an unknown key). Session close/expiry calls this so a recycled key
  /// starts cold instead of chasing a stale worker.
  void forget_affinity(const std::string& model_id, std::uint64_t affinity_key);

  /// Flush every queued request (batching deadlines ignored) and wait until
  /// the server is momentarily idle: queues empty, no batch in flight, and
  /// every accepted request's completion returned. Concurrent submits are
  /// still accepted and extend the wait.
  void drain();

  /// Stop admission, drain, and join all threads. Idempotent; called by the
  /// destructor. Requests blocked in a kBlock submit are rejected.
  void shutdown();

  /// Aggregate + per-model snapshot (registration order). Percentiles are
  /// computed outside the server lock — polling stats() does not stall
  /// submit/dispatch for the sort.
  ServerStats stats() const;
  ModelStats model_stats(const std::string& model_id) const;
  /// Zero every admission/dispatch/affinity counter, batch histogram,
  /// latency window and autoscaler event counter (e.g. after warm-up,
  /// before a measured run); peak_workers restarts from the current live
  /// count. Queued/in-flight requests are unaffected and will count against
  /// the fresh counters on completion. The live worker count itself is
  /// not changed.
  void reset_stats();

  /// Live (dispatch-eligible) workers right now; moves between
  /// autoscaler.min_workers/max_workers when autoscaling is enabled.
  int worker_count() const;
  std::vector<std::string> model_ids() const;

 private:
  struct Request;
  struct ModelState;
  struct BatchTask;
  struct WorkerState;

  void scheduler_main();
  void worker_main(int wid);
  /// Policy-aware model selection: the ready model the scheduler should
  /// dispatch next, or null. Fills `next_deadline` with the earliest
  /// batching OR request deadline among queued requests. Expired-deadline
  /// requests are purged into `expired` as a side effect. Lock held.
  ModelState* select_model_locked(std::chrono::steady_clock::time_point now,
                                  std::chrono::steady_clock::time_point* next_deadline,
                                  std::vector<Request>* expired);
  /// Purge requests whose SubmitOptions::deadline is unmeetable: elapsed in
  /// queue, or with less slack left than the model's (calibrated) execution
  /// estimate, so dispatching them would only waste a worker. Moves them to
  /// `expired` for the caller to fail with kDeadlineExpired.
  /// Feeds the earliest surviving effective deadline (deadline minus the
  /// execution estimate) into `next_deadline`. Lock held.
  void expire_deadlines_locked(ModelState& m, std::chrono::steady_clock::time_point now,
                               std::chrono::steady_clock::time_point* next_deadline,
                               std::vector<Request>* expired);
  /// Fail `requests`, which left their queues under `lock`, with `why`.
  /// The completions run with the lock released; until they all return the
  /// requests count in settling_, so drain()/shutdown() still wait for
  /// them. Called and returns with `lock` held.
  void settle_detached(std::unique_lock<std::mutex>& lock, std::span<Request> requests,
                       const ServerRejected& why);
  /// The model's calibrated whole-network execution estimate, as a clock
  /// duration (zero when the model has no estimate).
  /// Lock held (reads the calibration EWMA).
  std::chrono::steady_clock::duration exec_estimate_locked(const ModelState& m) const;
  /// Free live worker for `m`, preferring (1) the sticky worker of the next
  /// request's affinity key, (2) a warm executor (affinity hit); -1 when
  /// every live worker is occupied. Lock held.
  int select_worker_locked(const ModelState& m, bool* hit, bool* session_hit) const;
  /// Pop up to max_batch requests from `m` (kHigh first) into worker
  /// `wid`'s dispatch slot; records keyed requests' sticky workers. Lock
  /// held.
  void dispatch_locked(ModelState& m, int wid, bool affinity_hit, bool session_hit);
  /// One autoscaler evaluation: maybe move live_workers_ by one. Lock held.
  void autoscale_locked(std::chrono::steady_clock::time_point now);
  /// The registered model `model_id`, or null. Lock held.
  ModelState* find_model_locked(const std::string& model_id) const;
  /// Queues empty, no batch placed or running, no detached completion in
  /// progress: every accepted request has settled. Lock held.
  bool idle_locked() const;
  /// Everything except the latency summary, which the caller computes from
  /// the copied-out sample window after releasing mu_.
  ModelStats snapshot_locked(const ModelState& m) const;

  ServerOptions options_;
  /// Resolved time source: options_.clock, or the process steady clock.
  /// Every timed decision and latency stamp reads through this.
  const Clock* clock_ = nullptr;

  std::mutex lifecycle_mu_;  // serializes shutdown()/destructor
  mutable std::mutex mu_;    // queues, dispatch, counters, lifecycle
  // Latency sample windows live behind their own lock so a stats() poll
  // copying them (up to 65536 doubles per model) never blocks
  // submit or the scheduler on mu_. Discipline: stats_mu_ is NEVER held
  // together with mu_ — every path takes them sequentially.
  mutable std::mutex stats_mu_;
  std::condition_variable sched_cv_;  // scheduler: arrivals, freed workers
  std::condition_variable space_cv_;  // kBlock submitters: queue space
  std::condition_variable idle_cv_;   // drain/shutdown: server went idle

  // Registration order drives the weighted-deficit scan; lookup
  // (find_model_locked) is a linear scan, which is fine for the handful of
  // models a server realistically hosts. ModelState addresses are stable (unique_ptr) — workers key
  // executor caches and in-flight batches by pointer.
  std::vector<std::unique_ptr<ModelState>> models_;
  std::size_t rr_ = 0;  // weighted-deficit scan cursor into models_

  // One state per worker thread; index == thread id. Each has its own
  // dispatch slot and condition variable, so the scheduler wakes exactly
  // the worker it placed a batch on.
  std::vector<std::unique_ptr<WorkerState>> worker_state_;
  int live_workers_ = 0;   // workers [0, live_workers_) are dispatch-eligible
  int peak_workers_ = 0;   // high-water mark of live_workers_
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
  std::uint64_t autoscale_evals_ = 0;
  int up_streak_ = 0;      // consecutive pressure evaluations (hysteresis)
  int down_streak_ = 0;    // consecutive idle evaluations (hysteresis)
  std::chrono::steady_clock::time_point last_scale_;
  std::chrono::steady_clock::time_point next_eval_;

  int busy_workers_ = 0;
  std::size_t settling_ = 0;  // detached requests whose completion is running
  bool accepting_ = true;
  bool flush_ = false;        // drain/shutdown: ignore batching deadlines
  int drain_waiters_ = 0;     // flush_ stays set while any drain() waits
  bool stop_threads_ = false;
  bool joined_ = false;

  LatencyRecorder global_latency_;       // across models, guarded by stats_mu_
  LatencyRecorder global_exec_latency_;  // executor time only, guarded by stats_mu_

  std::thread scheduler_;
  std::vector<std::thread> workers_;
};

}  // namespace bswp::runtime
