// Observable server state: admission counters, queue depth, batch-size
// histogram, dispatch share, worker-affinity hits, autoscaler state and
// end-to-end latency (queueing included), per model and aggregated.
// Snapshots are plain value types taken under the server lock.
//
// Units, once and for all (docs/serving.md repeats this table in prose):
//   * every AdmissionCounters field and `dispatched` count REQUESTS;
//   * `batches`, `batch_size_hist`, and the affinity counters count BATCHES
//     (one dispatch of 1..max_batch requests to one worker);
//   * every latency field is MICROSECONDS (the `_us` suffix is load-bearing);
//   * `queue_depth` is an instantaneous request count, not a rate;
//   * worker counts are live (dispatch-eligible) workers, not threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/latency_recorder.h"

namespace bswp::runtime {

/// What happened to every request at and after admission; all five fields
/// count requests. Every submitted request ends in exactly one of
/// {rejected, shed, completed, failed}; `accepted` counts admissions. A
/// request is counted before its future resolves, so any stats read made
/// after every accepted request's future has resolved (in particular, on an
/// idle, drained server) balances: accepted == completed + failed + shed.
struct AdmissionCounters {
  std::uint64_t accepted = 0;   // requests admitted into the model's queue
  std::uint64_t rejected = 0;   // requests refused at submit (kReject overflow
                                // or shutdown) — never entered the queue
  std::uint64_t shed = 0;       // requests evicted from the queue after
                                // admission (kShedOldest overflow, or a
                                // SubmitOptions::deadline expiring in queue —
                                // the latter also counted in
                                // ModelStats::deadline_expired)
  std::uint64_t completed = 0;  // futures fulfilled with logits
  std::uint64_t failed = 0;     // futures fulfilled with an error (bad input,
                                // executor failure) — shed is counted in
                                // `shed`, not here
};

/// The dispatch counters each model keeps, in the form both stats records
/// carry them: a ModelStats holds one model's, a ServerStats the sum over
/// models, so a snapshot is one copy, a sum one `+=`, a reset one
/// assignment.
struct DispatchCounters {
  AdmissionCounters admission;
  /// Batches dispatched to workers since start/reset_stats().
  std::uint64_t batches = 0;
  /// Requests dispatched to workers (sum of batch sizes); >= completed +
  /// failed while batches are in flight.
  std::uint64_t dispatched = 0;
  /// Batches placed on a worker that already held the model's warm arena
  /// Executor (hit) vs. one that had to build it (miss);
  /// affinity_hits + affinity_misses == batches. A low hit rate on a hot
  /// model means its executors are being rebuilt instead of staying
  /// cache-resident (e.g. more models than workers churning).
  std::uint64_t affinity_hits = 0;
  std::uint64_t affinity_misses = 0;
  /// Batches that carried a SubmitOptions::affinity_key and landed on (hit)
  /// vs. off (miss) the worker that last served that key; batches without a
  /// key count in neither. A session-affinity hit implies the session's
  /// warm state executor was reused in place — the signal the session layer
  /// surfaces as its affinity hit rate.
  std::uint64_t session_affinity_hits = 0;
  std::uint64_t session_affinity_misses = 0;
  /// Requests purged from the queue because their SubmitOptions::deadline
  /// elapsed before dispatch, or shed in flight (also in admission.shed).
  std::uint64_t deadline_expired = 0;
  /// batch_size_hist[k] = batches dispatched with exactly k requests
  /// (index 0 unused; sized to the largest batch seen).
  std::vector<std::uint64_t> batch_size_hist;

  DispatchCounters& operator+=(const DispatchCounters& o) {
    admission.accepted += o.admission.accepted;
    admission.rejected += o.admission.rejected;
    admission.shed += o.admission.shed;
    admission.completed += o.admission.completed;
    admission.failed += o.admission.failed;
    batches += o.batches;
    dispatched += o.dispatched;
    affinity_hits += o.affinity_hits;
    affinity_misses += o.affinity_misses;
    session_affinity_hits += o.session_affinity_hits;
    session_affinity_misses += o.session_affinity_misses;
    deadline_expired += o.deadline_expired;
    if (batch_size_hist.size() < o.batch_size_hist.size()) {
      batch_size_hist.resize(o.batch_size_hist.size(), 0);
    }
    for (std::size_t k = 0; k < o.batch_size_hist.size(); ++k) {
      batch_size_hist[k] += o.batch_size_hist[k];
    }
    return *this;
  }
};

struct ModelStats : DispatchCounters {
  std::string model;
  /// Requests currently waiting to be batched (instantaneous snapshot;
  /// excludes requests already dispatched to a worker).
  std::size_t queue_depth = 0;
  /// This model's fraction of all dispatched requests across the server
  /// (0 when nothing has been dispatched). Under saturation this converges
  /// toward weight / sum(weights) — compare it against `weight` to see
  /// whether a model is getting its configured share.
  double dispatch_share = 0.0;
  /// ModelConfig::weight echo, so dashboards can plot share vs. weight.
  int weight = 1;
  /// Requests per dispatched batch: dispatched / batches (0 before the
  /// first batch).
  double mean_batch_size = 0.0;
  /// End-to-end latency in microseconds, submit() to future fulfillment —
  /// queueing and batching delay included (most recent 65536 samples).
  LatencySummary latency;
  /// Execute-time latency in MICROSECONDS, exclusive of queueing and
  /// batching delay: the wall time of the executor call that produced each
  /// request's logits. Under batched dispatch the whole batch runs as one
  /// executor call and every request in it records batch wall time / batch
  /// size, so `latency` - `exec_latency` is the serving overhead (queueing +
  /// batch formation). Requests that fail before or during execution record
  /// no sample: count tracks completed requests, not dispatched ones.
  LatencySummary exec_latency;
};

/// The session-serving layer's slice of ServerStats (tokens, not requests —
/// one generated token is one decode-step request through submit()). Filled
/// by runtime/sessions/SessionManager::stats(); zero-valued on a server with
/// no session layer attached. Latency fields are MICROSECONDS per token,
/// end-to-end (queueing + execution + state splice).
struct SessionServingStats {
  std::uint64_t opened = 0;        // sessions opened since start
  std::uint64_t closed = 0;        // sessions closed explicitly
  std::uint64_t expired = 0;       // sessions closed by idle-TTL expiry
  std::size_t active_sessions = 0; // open right now (snapshot)
  std::size_t peak_sessions = 0;   // high-water mark of active_sessions
  std::uint64_t tokens = 0;        // generated tokens (prompt prefill excluded)
  std::uint64_t generations = 0;   // generate() calls that ran to completion
  std::uint64_t cancelled = 0;     // generate() calls stopped by close/shutdown
  std::uint64_t deadline_misses = 0;  // per-token deadline expiries (each
                                      // retried without a deadline, so a miss
                                      // costs latency, never a token)
  /// Generated tokens per wall-clock second, summed over completed decode
  /// loops (prefill steps excluded from both numerator and denominator).
  double tokens_per_s = 0.0;
  /// Per-token end-to-end latency (most recent 16384 tokens).
  LatencySummary token_latency;
  /// Session-affinity hit rate of the decode traffic, from the server's
  /// session_affinity counters: hits / (hits + misses); 0 before any
  /// keyed dispatch.
  double affinity_hit_rate = 0.0;
};

/// Server-wide totals: the DispatchCounters fields are sums over models.
struct ServerStats : DispatchCounters {
  std::size_t queue_depth = 0;  // queued requests across models (snapshot)
  double mean_batch_size = 0.0; // dispatched / batches (0 before any batch)
  /// Live (dispatch-eligible) workers right now. Fixed at
  /// ServerOptions::workers unless the autoscaler is enabled.
  int current_workers = 0;
  /// High-water mark of current_workers since start/reset_stats().
  int peak_workers = 0;
  /// Autoscaler scale events since start/reset_stats(): each event moves
  /// the live count by exactly one worker, so current_workers equals the
  /// live count at the start of the stats window plus
  /// scale_up_events - scale_down_events (both 0 when the autoscaler is
  /// disabled).
  std::uint64_t scale_up_events = 0;
  std::uint64_t scale_down_events = 0;
  /// Autoscaler evaluations since start/reset_stats() (0 when disabled).
  /// Tests use this to confirm the scheduler observed an advanced manual
  /// clock before asserting what the evaluation did (or did not) change.
  std::uint64_t autoscale_evals = 0;
  LatencySummary latency;          // microseconds, across all models
  /// Execute-time latency across all models (see ModelStats::exec_latency).
  LatencySummary exec_latency;
  /// Session-serving rollup (all-zero unless a SessionManager fills it —
  /// bswp::SessionServer::stats() returns the merged snapshot).
  SessionServingStats sessions;
  std::vector<ModelStats> models;  // registration order
};

}  // namespace bswp::runtime
