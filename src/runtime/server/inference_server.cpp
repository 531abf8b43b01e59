#include "runtime/server/inference_server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <utility>

#include "runtime/executor.h"
#include "sim/mcu.h"

namespace bswp::runtime {

// In this file `Clock` is runtime::Clock (the injectable seam from
// runtime/clock.h); its time_point/duration are steady_clock's, so existing
// timestamp types are unchanged. Every read of "now" goes through clock_.

namespace {

/// End-to-end and executor latency samples retained per model and server-
/// wide (ring windows; the percentiles in ServerStats cover these).
constexpr std::size_t kLatencyWindow = 1 << 16;

double micros_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// num / den, 0 when den is 0.
double ratio(std::uint64_t num, std::uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double mean_batch(const DispatchCounters& c) { return ratio(c.dispatched, c.batches); }

void validate(const ModelConfig& config, const char* who) {
  check(config.batching.max_batch >= 1, std::string(who) + ": max_batch must be >= 1");
  check(config.batching.max_delay.count() >= 0, std::string(who) + ": max_delay must be >= 0");
  check(config.queue.capacity >= 1, std::string(who) + ": queue capacity must be >= 1");
  check(config.weight >= 1, std::string(who) + ": priority weight must be >= 1");
}

void validate(const AutoscalerOptions& a, const char* who) {
  if (!a.enabled) return;
  check(a.min_workers >= 1, std::string(who) + ": autoscaler min_workers must be >= 1");
  check(a.max_workers >= a.min_workers,
        std::string(who) + ": autoscaler max_workers must be >= min_workers");
  check(a.interval.count() > 0, std::string(who) + ": autoscaler interval must be > 0");
  check(a.up_queue_per_worker > 0.0,
        std::string(who) + ": autoscaler up_queue_per_worker must be > 0");
  check(a.up_consecutive >= 1 && a.down_consecutive >= 1,
        std::string(who) + ": autoscaler hysteresis streaks must be >= 1");
  check(a.cooldown.count() >= 0, std::string(who) + ": autoscaler cooldown must be >= 0");
}

}  // namespace

/// One queued request: the input, its completion, and two timestamps —
/// end-to-end latency is measured from `arrival` (the top of submit(), so a
/// kBlock wait on a full queue is counted), while the batching deadline runs
/// from `enqueue` (queue entry, the moment the request became batchable).
struct InferenceServer::Request {
  Tensor image;
  Completion done;
  Clock::time_point arrival;
  Clock::time_point enqueue;
  /// SubmitOptions::affinity_key (0 = none): sticky-worker placement.
  std::uint64_t affinity_key = 0;
  /// Absolute queue-residency deadline (enqueue + SubmitOptions::deadline);
  /// max() = none. Expired requests are purged by the scheduler.
  Clock::time_point deadline = Clock::time_point::max();
};

/// Everything the server knows about one registered model. Heap-pinned
/// (unique_ptr in models_) so workers can key executor caches and in-flight
/// batches by address. All fields are guarded by the server's mu_, except
/// the latency recorders, which live behind stats_mu_.
///
/// The queue is two FIFOs, one per RequestClass: dispatch pops kHigh first,
/// kShedOldest evicts kNormal first, and the batching deadline runs from the
/// oldest request across both.
struct InferenceServer::ModelState {
  ModelState(std::string id_, const CompiledNetwork& n, const ModelConfig& c)
      : id(std::move(id_)), net(&n), config(c), latency(kLatencyWindow),
        exec_latency(kLatencyWindow) {
    for (const auto& p : n.plans) {
      if (p.kind == PlanKind::kInput) {
        input_chw = p.out_chw;
        break;
      }
    }
  }

  std::string id;
  const CompiledNetwork* net;
  ModelConfig config;
  /// The compiled input CHW, for pre-dispatch shape validation (empty when
  /// the network has no kInput plan).
  std::vector<int> input_chw;
  /// Execution-aware deadline schedule: remaining_us[p] is the estimated
  /// per-image microseconds from layer p (inclusive) to the end of the plan,
  /// from a one-time CostCounter capture at register_model priced with
  /// sim::host_profile(). Immutable after registration, so workers may read
  /// it without mu_ (CancelToken borrows the data pointer). Empty when
  /// profiling failed for this model (queue-residency deadlines then).
  std::vector<double> remaining_us;
  /// EWMA calibration of the cost model against measured executor wall time
  /// (measured / predicted, per image). Guarded by mu_; 1.0 until the first
  /// completed batch with a nonzero measurement (manual-clock runs measure
  /// zero wall time and leave it at 1).
  double cost_scale = 1.0;
  bool cost_scale_valid = false;

  std::deque<Request> high;  // RequestClass::kHigh, FIFO
  std::deque<Request> norm;  // RequestClass::kNormal, FIFO
  /// Weighted deficit: batches this model may still dispatch in the current
  /// scheduling cycle. Refilled to config.weight when every ready model has
  /// spent its grant; zeroed when the queue empties (no banked bursts).
  int credits = 0;

  /// Admission and dispatch counters, zeroed by reset_stats().
  DispatchCounters counters;
  /// Sticky worker of each session-affinity key, written at dispatch and
  /// erased by forget_affinity(). State, not statistics: reset_stats leaves
  /// it alone. Defensively bounded in dispatch_locked — a client that leaks
  /// keys (never calls forget_affinity) degrades to cold placement instead
  /// of growing this map without bound.
  std::unordered_map<std::uint64_t, int> sticky;
  LatencyRecorder latency;  // end-to-end, incl. queueing (guarded by stats_mu_)
  LatencyRecorder exec_latency;  // executor time only (guarded by stats_mu_)

  std::size_t queued() const { return high.size() + norm.size(); }

  /// Enqueue time of the oldest queued request across both classes (each
  /// deque is FIFO by enqueue, so this is the min of the two fronts).
  Clock::time_point oldest_enqueue() const {
    if (high.empty()) return norm.front().enqueue;
    if (norm.empty()) return high.front().enqueue;
    return std::min(high.front().enqueue, norm.front().enqueue);
  }

  /// Affinity key of the next request pop_next() would return (0 if none
  /// queued or unkeyed) — what worker selection steers by.
  std::uint64_t next_key() const {
    const std::deque<Request>& q = high.empty() ? norm : high;
    return q.empty() ? 0 : q.front().affinity_key;
  }

  /// Next request to dispatch: high-class first, FIFO within a class.
  Request pop_next() {
    std::deque<Request>& q = high.empty() ? norm : high;
    Request r = std::move(q.front());
    q.pop_front();
    return r;
  }

  /// kShedOldest victim: the oldest normal-class request, or — when no
  /// normal-class request is queued — the oldest high-class one.
  Request pop_shed_victim() {
    std::deque<Request>& q = norm.empty() ? high : norm;
    Request r = std::move(q.front());
    q.pop_front();
    return r;
  }
};

/// One formed batch on its way to a worker.
struct InferenceServer::BatchTask {
  ModelState* model = nullptr;
  std::vector<Request> requests;
};

/// Per-worker dispatch slot plus what the scheduler knows about the worker's
/// executor cache. All fields guarded by mu_; each worker has its own cv so
/// a dispatch wakes exactly the worker it targets.
struct InferenceServer::WorkerState {
  std::condition_variable cv;
  bool busy = false;      // executing a batch (outside mu_)
  bool has_task = false;  // batch placed, not yet picked up
  BatchTask task;
  /// Models whose arena Executor this worker has built (affinity targets).
  /// Survives descaling: a parked worker re-enters warm.
  std::vector<const ModelState*> warm;
};

InferenceServer::InferenceServer(const ServerOptions& options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock : &steady_clock_ref()),
      global_latency_(kLatencyWindow),
      global_exec_latency_(kLatencyWindow) {
  check(options_.workers >= 1, "InferenceServer: workers must be >= 1");
  validate(ModelConfig{options_.batching, options_.queue}, "InferenceServer");
  validate(options_.autoscaler, "InferenceServer");

  const AutoscalerOptions& a = options_.autoscaler;
  const int threads = a.enabled ? a.max_workers : options_.workers;
  live_workers_ = a.enabled ? std::clamp(options_.workers, a.min_workers, a.max_workers)
                            : options_.workers;
  peak_workers_ = live_workers_;
  last_scale_ = clock_->now();
  next_eval_ = last_scale_ + a.interval;

  worker_state_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) worker_state_.push_back(std::make_unique<WorkerState>());
  scheduler_ = std::thread([this] { scheduler_main(); });
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_main(i); });
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

void InferenceServer::register_model(const std::string& model_id, const CompiledNetwork& net) {
  register_model(model_id, net, ModelConfig{options_.batching, options_.queue});
}

void InferenceServer::register_model(const std::string& model_id, const CompiledNetwork& net,
                                     const ModelConfig& config) {
  check(!net.plans.empty(), "InferenceServer::register_model: empty network");
  validate(config, "InferenceServer::register_model");
  auto state = std::make_unique<ModelState>(model_id, net, config);
  if (state->input_chw.size() == 3) {
    // One-time per-layer cost capture: the estimate source for execution-
    // aware deadlines. A throwaway single-image Executor runs the plan once,
    // each layer tallying its own CostCounter; the host profile prices the
    // counters and the suffix sum becomes the remaining-execution schedule
    // CancelTokens are armed with. Event counts depend on geometry and bit
    // planes, not weight values, so a zero image prices like any other. A
    // model this fails for simply serves with queue-residency deadlines.
    try {
      Executor probe(net, 1);
      const Tensor zero(std::vector<int>{state->input_chw[0], state->input_chw[1],
                                         state->input_chw[2]});
      const std::vector<sim::CostCounter> layers = probe.profile_layers(zero);
      const sim::McuProfile host = sim::host_profile();
      state->remaining_us.assign(layers.size(), 0.0);
      double acc = 0.0;
      for (std::size_t p = layers.size(); p-- > 0;) {
        acc += host.seconds(layers[p]) * 1e6;
        state->remaining_us[p] = acc;
      }
      if (!(acc > 0.0)) state->remaining_us.clear();
    } catch (...) {
      state->remaining_us.clear();
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  check(accepting_, "InferenceServer::register_model: server is shut down");
  check(find_model_locked(model_id) == nullptr,
        "InferenceServer::register_model: duplicate model id '" + model_id + "'");
  models_.push_back(std::move(state));
}

std::future<QTensor> InferenceServer::submit(const std::string& model_id, Tensor image,
                                             RequestClass cls) {
  SubmitOptions options;
  options.cls = cls;
  return submit(model_id, std::move(image), options);
}

std::future<QTensor> InferenceServer::submit(const std::string& model_id, Tensor image,
                                             const SubmitOptions& options) {
  auto promise = std::make_shared<std::promise<QTensor>>();
  std::future<QTensor> fut = promise->get_future();
  submit(model_id, std::move(image), options,
         [promise](QTensor logits, std::exception_ptr error) {
           if (error != nullptr) {
             promise->set_exception(std::move(error));
           } else {
             promise->set_value(std::move(logits));
           }
         });
  return fut;
}

void InferenceServer::submit(const std::string& model_id, Tensor image,
                             const SubmitOptions& options, Completion done) {
  const Clock::time_point arrival = clock_->now();

  std::unique_lock<std::mutex> lock(mu_);
  ModelState* m = find_model_locked(model_id);
  check(m != nullptr, "InferenceServer::submit: unknown model '" + model_id + "'");

  const auto reject = [&](ServerRejected::Reason reason, const char* what) {
    ++m->counters.admission.rejected;
    lock.unlock();
    done(QTensor{}, std::make_exception_ptr(ServerRejected(reason, what)));
  };
  if (!accepting_) {
    return reject(ServerRejected::Reason::kShutdown, "InferenceServer: shutting down");
  }

  // Admission control: the queue is bounded, and this is where a saturated
  // server pushes back (the scheduler stops draining queues once every live
  // worker is busy). RequestClass does not bypass admission — a kHigh
  // request blocks/rejects like any other; it only orders the queue.
  const std::size_t capacity = m->config.queue.capacity;
  std::optional<Request> victim;
  if (m->queued() >= capacity) {
    switch (m->config.queue.policy) {
      case QueuePolicy::kBlock:
        space_cv_.wait(lock, [&] { return !accepting_ || m->queued() < capacity; });
        if (!accepting_) {
          return reject(ServerRejected::Reason::kShutdown, "InferenceServer: shutting down");
        }
        break;
      case QueuePolicy::kReject:
        return reject(ServerRejected::Reason::kQueueFull,
                      "InferenceServer: queue full (kReject)");
      case QueuePolicy::kShedOldest:
        // Failed outside mu_ below, once the newcomer holds its slot.
        victim = m->pop_shed_victim();
        ++m->counters.admission.shed;
        break;
    }
  }

  Request r;
  r.image = std::move(image);
  r.done = std::move(done);
  r.arrival = arrival;
  r.enqueue = clock_->now();
  r.affinity_key = options.affinity_key;
  if (options.deadline.count() > 0) r.deadline = r.enqueue + options.deadline;
  (options.cls == RequestClass::kHigh ? m->high : m->norm).push_back(std::move(r));
  ++m->counters.admission.accepted;
  sched_cv_.notify_one();
  if (victim) {
    settle_detached(lock, std::span<Request>(&*victim, 1),
                    ServerRejected(ServerRejected::Reason::kShed,
                                   "InferenceServer: shed by a newer request (kShedOldest)"));
  }
}

void InferenceServer::settle_detached(std::unique_lock<std::mutex>& lock,
                                      std::span<Request> requests, const ServerRejected& why) {
  settling_ += requests.size();
  lock.unlock();
  const std::exception_ptr error = std::make_exception_ptr(why);
  for (Request& r : requests) r.done(QTensor{}, error);
  lock.lock();
  settling_ -= requests.size();
  if (settling_ == 0) idle_cv_.notify_all();
}

void InferenceServer::forget_affinity(const std::string& model_id, std::uint64_t affinity_key) {
  std::lock_guard<std::mutex> lock(mu_);
  ModelState* m = find_model_locked(model_id);
  check(m != nullptr, "InferenceServer::forget_affinity: unknown model '" + model_id + "'");
  m->sticky.erase(affinity_key);
}

InferenceServer::ModelState* InferenceServer::find_model_locked(
    const std::string& model_id) const {
  for (const auto& m : models_) {
    if (m->id == model_id) return m.get();
  }
  return nullptr;
}

Clock::duration InferenceServer::exec_estimate_locked(const ModelState& m) const {
  if (m.remaining_us.empty()) return Clock::duration::zero();
  const double us = m.remaining_us.front() * (m.cost_scale_valid ? m.cost_scale : 1.0);
  if (!(us > 0.0)) return Clock::duration::zero();
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}

void InferenceServer::expire_deadlines_locked(ModelState& m, Clock::time_point now,
                                              Clock::time_point* next_deadline,
                                              std::vector<Request>* expired) {
  // Refuse-to-dispatch: with an execution estimate available, a request is
  // unmeetable once its remaining slack drops below the estimated execution
  // time — not merely once the deadline itself passes. Purging on the
  // effective deadline (deadline - estimate) is what keeps doomed work from
  // ever occupying a worker; without an estimate this degrades to plain
  // queue-residency expiry.
  const Clock::duration est = exec_estimate_locked(m);
  const std::size_t before = expired->size();
  for (std::deque<Request>* q : {&m.high, &m.norm}) {
    for (auto it = q->begin(); it != q->end();) {
      if (it->deadline == Clock::time_point::max()) {
        ++it;
        continue;
      }
      const Clock::time_point effective = it->deadline - est;
      if (effective <= now) {
        ++m.counters.admission.shed;
        ++m.counters.deadline_expired;
        expired->push_back(std::move(*it));
        it = q->erase(it);
      } else {
        *next_deadline = std::min(*next_deadline, effective);
        ++it;
      }
    }
  }
  if (expired->size() != before) space_cv_.notify_all();  // queue space freed for kBlock submitters
}

InferenceServer::ModelState* InferenceServer::select_model_locked(
    Clock::time_point now, Clock::time_point* next_deadline, std::vector<Request>* expired) {
  *next_deadline = Clock::time_point::max();

  // Purge expired per-request deadlines over every queued model before
  // anything else — in particular before the no-free-worker early return
  // below. An expired request must settle promptly even under full
  // worker saturation (the session layer's deadline-free retry waits on that
  // failure), and the earliest surviving request deadline joins the batching
  // deadlines in the scheduler's wake computation so the purge re-runs on
  // time while all workers stay busy.
  for (const auto& m : models_) {
    if (m->queued() != 0) expire_deadlines_locked(*m, now, next_deadline, expired);
  }

  // A batch is formed only while a live worker is free: at most one pending
  // task per idle worker. When all live workers are busy, requests age in
  // the bounded per-model queues — that is what makes admission control see
  // overload instead of an elastic internal queue, and what the autoscaler
  // reads as queue pressure.
  bool any_free = false;
  for (int i = 0; i < live_workers_; ++i) {
    const WorkerState& w = *worker_state_[static_cast<std::size_t>(i)];
    if (!w.busy && !w.has_task) {
      any_free = true;
      break;
    }
  }
  if (!any_free || models_.empty()) return nullptr;

  const std::size_t n = models_.size();
  // Scan from the cursor: the cursor advances past each dispatched model,
  // so same-credit models take turns. A ready model is dispatchable only
  // while it has batch credits; when every ready model
  // has spent its grant, a new cycle refills credits to each model's weight
  // — that refill boundary is what makes sustained shares proportional to
  // the weights while a weight-1 model still dispatches every cycle.
  ModelState* exhausted = nullptr;  // first ready model with no credits left
  std::size_t exhausted_k = 0;
  for (std::size_t k = 0; k < n; ++k) {
    ModelState& m = *models_[(rr_ + k) % n];
    // Expired requests were already purged above, so everything still
    // queued here is dispatchable.
    if (m.queued() == 0) continue;
    const Clock::time_point deadline = m.oldest_enqueue() + m.config.batching.max_delay;
    const bool is_ready = flush_ ||
                          static_cast<int>(m.queued()) >= m.config.batching.max_batch ||
                          now >= deadline;
    if (!is_ready) {
      *next_deadline = std::min(*next_deadline, deadline);
      continue;
    }
    if (m.credits > 0) {
      rr_ = (rr_ + k + 1) % n;
      return &m;
    }
    if (exhausted == nullptr) {
      exhausted = &m;
      exhausted_k = k;
    }
  }
  if (exhausted == nullptr) return nullptr;
  for (const auto& m : models_) m->credits = m->config.weight;
  rr_ = (rr_ + exhausted_k + 1) % n;
  return exhausted;
}

int InferenceServer::select_worker_locked(const ModelState& m, bool* hit,
                                          bool* session_hit) const {
  *hit = false;
  *session_hit = false;
  // Sticky placement first: the worker that last served the next request's
  // affinity key holds that session's decode state pattern in its warm
  // executor and cache. Only taken when that worker is free and live — a
  // busy sticky worker falls through to the warm scan (an affinity miss,
  // never a stall).
  const std::uint64_t key = m.next_key();
  if (key != 0) {
    const auto it = m.sticky.find(key);
    if (it != m.sticky.end() && it->second < live_workers_) {
      const WorkerState& w = *worker_state_[static_cast<std::size_t>(it->second)];
      if (!w.busy && !w.has_task) {
        *session_hit = true;
        *hit = std::find(w.warm.begin(), w.warm.end(), &m) != w.warm.end();
        return it->second;
      }
    }
  }
  int cold = -1;
  for (int i = 0; i < live_workers_; ++i) {
    const WorkerState& w = *worker_state_[static_cast<std::size_t>(i)];
    if (w.busy || w.has_task) continue;
    if (std::find(w.warm.begin(), w.warm.end(), &m) != w.warm.end()) {
      *hit = true;
      return i;  // free worker with this model's executor already built
    }
    if (cold < 0) cold = i;
  }
  return cold;
}

void InferenceServer::dispatch_locked(ModelState& m, int wid, bool affinity_hit,
                                      bool session_hit) {
  WorkerState& w = *worker_state_[static_cast<std::size_t>(wid)];
  BatchTask task;
  task.model = &m;
  const std::uint64_t lead_key = m.next_key();
  const std::size_t take =
      std::min(m.queued(), static_cast<std::size_t>(m.config.batching.max_batch));
  task.requests.reserve(take);
  for (std::size_t i = 0; i < take; ++i) task.requests.push_back(m.pop_next());
  // Record every keyed request's worker so the next step of its session
  // steers here. The bound self-heals a client that leaks keys: past it,
  // placement degrades to cold rather than the map growing without limit.
  if (m.sticky.size() > 65536) m.sticky.clear();
  for (const Request& r : task.requests) {
    if (r.affinity_key != 0) m.sticky[r.affinity_key] = wid;
  }
  if (m.credits > 0) --m.credits;
  if (m.queued() == 0) m.credits = 0;  // no banking across idle periods

  DispatchCounters& c = m.counters;
  if (lead_key != 0) ++(session_hit ? c.session_affinity_hits : c.session_affinity_misses);
  ++(affinity_hit ? c.affinity_hits : c.affinity_misses);
  ++c.batches;
  c.dispatched += take;
  if (c.batch_size_hist.size() <= take) c.batch_size_hist.resize(take + 1, 0);
  ++c.batch_size_hist[take];

  w.task = std::move(task);
  w.has_task = true;
  w.cv.notify_one();
  space_cv_.notify_all();  // queue space freed for kBlock submitters
}

void InferenceServer::scheduler_main() {
  std::vector<Request> expired;  // deadline purges, failed outside mu_
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stop_threads_) return;
    const Clock::time_point now = clock_->now();

    if (options_.autoscaler.enabled && now >= next_eval_) {
      autoscale_locked(now);
      next_eval_ = now + options_.autoscaler.interval;
    }

    Clock::time_point next_deadline = Clock::time_point::max();
    ModelState* pick = select_model_locked(now, &next_deadline, &expired);
    if (pick != nullptr) {
      bool hit = false;
      bool session_hit = false;
      const int wid = select_worker_locked(*pick, &hit, &session_hit);
      // select_model_locked only returns a model while a worker is free and
      // the lock has been held throughout, so a slot is guaranteed.
      check(wid >= 0, "InferenceServer: scheduler invariant violated (no free worker)");
      dispatch_locked(*pick, wid, hit, session_hit);
    }
    if (!expired.empty()) {
      settle_detached(lock, expired,
                      ServerRejected(ServerRejected::Reason::kDeadlineExpired,
                                     "InferenceServer: deadline unmeetable (expired in queue, "
                                     "or remaining slack below the execution estimate)"));
      expired.clear();
      continue;  // mu_ was released: re-read the queues before sleeping
    }
    if (pick != nullptr) continue;  // more models (or more of this one) may be ready

    // Nothing dispatchable: sleep until the oldest request's batching
    // deadline fires a partial batch, or the next autoscaler evaluation,
    // whichever is sooner. Arrivals and freed workers re-wake us earlier.
    Clock::time_point wake = next_deadline;
    if (options_.autoscaler.enabled) wake = std::min(wake, next_eval_);
    if (wake != Clock::time_point::max()) {
      clock_->wait_until(sched_cv_, lock, wake);
    } else {
      sched_cv_.wait(lock);
    }
  }
}

void InferenceServer::autoscale_locked(Clock::time_point now) {
  ++autoscale_evals_;
  const AutoscalerOptions& a = options_.autoscaler;
  std::size_t queued = 0;
  for (const auto& m : models_) queued += m->queued();
  int occupied = busy_workers_;
  for (const auto& w : worker_state_) {
    if (w->has_task) ++occupied;
  }

  const bool pressure =
      static_cast<double>(queued) > a.up_queue_per_worker * static_cast<double>(live_workers_);
  const bool idle = queued == 0 && occupied < live_workers_;

  // Hysteresis: a signal must hold for a consecutive streak of evaluations,
  // opposing signals reset each other's streak, and `cooldown` separates any
  // two scale events — so a step change in load converges to a stable count
  // instead of oscillating. Streaks clamp at their thresholds: a pool pinned
  // at min/max keeps satisfying its streak without counting toward overflow.
  if (pressure) {
    down_streak_ = 0;
    up_streak_ = std::min(up_streak_ + 1, a.up_consecutive);
    if (up_streak_ >= a.up_consecutive && live_workers_ < a.max_workers &&
        now - last_scale_ >= a.cooldown) {
      ++live_workers_;
      peak_workers_ = std::max(peak_workers_, live_workers_);
      ++scale_ups_;
      last_scale_ = now;
      up_streak_ = 0;
    }
  } else if (idle) {
    up_streak_ = 0;
    down_streak_ = std::min(down_streak_ + 1, a.down_consecutive);
    if (down_streak_ >= a.down_consecutive && live_workers_ > a.min_workers &&
        now - last_scale_ >= a.cooldown) {
      --live_workers_;
      ++scale_downs_;
      last_scale_ = now;
      down_streak_ = 0;
    }
  } else {
    up_streak_ = 0;
    down_streak_ = 0;
  }
}

void InferenceServer::worker_main(int wid) {
  WorkerState& self = *worker_state_[static_cast<std::size_t>(wid)];
  // One arena Executor per model this worker has served, keyed by the
  // stable ModelState address; arenas stay warm across batches (and across
  // descale/rescale — a parked worker keeps its cache, which is what makes
  // affinity hits resume immediately after a scale-up). Executors are built
  // with the model's max_batch so a full batch has its arena slots.
  std::unordered_map<const ModelState*, std::unique_ptr<Executor>> executors;
  // Every batch, one request or many, stages its validated images
  // contiguously here (Tensor moves only) and goes through ONE
  // run_batch_view span; both vectors keep their capacity across batches,
  // so the steady state of a warm worker performs no heap allocations on
  // the dispatch path.
  std::vector<Tensor> staging;
  std::vector<std::size_t> staged_req;  // staging slot -> request index
  // One reusable cooperative token: armed per executor call (owner-thread
  // protocol — never while a run is in flight), checked by the executor at
  // every layer boundary.
  CancelToken cancel;

  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    self.cv.wait(lock, [&] { return stop_threads_ || self.has_task; });
    if (!self.has_task) return;  // stop_threads_: queues already drained
    BatchTask task = std::move(self.task);
    self.task = BatchTask{};
    self.has_task = false;
    self.busy = true;
    ++busy_workers_;
    ModelState& m = *task.model;
    const double cost_scale = m.cost_scale_valid ? m.cost_scale : 1.0;
    lock.unlock();

    std::unique_ptr<Executor>& exec = executors[task.model];
    bool built = false;
    std::exception_ptr build_error;
    if (exec == nullptr) {
      try {
        exec = std::make_unique<Executor>(*m.net, m.config.batching.max_batch);
        built = true;
      } catch (...) {
        build_error = std::current_exception();
      }
    }

    struct Outcome {
      QTensor logits;
      std::exception_ptr error;
      double exec_us = 0.0;  // executor wall time attributed to this request
      bool ran = false;      // produced logits (exec_us is meaningful)
      bool shed = false;     // cancelled at a layer boundary (SLO unreachable)
    };
    std::vector<Outcome> outcomes(task.requests.size());
    // Execution-aware shedding: the token is armed with a member deadline and
    // the model's remaining-execution schedule (immutable after registration,
    // so reading it without mu_ is safe), scaled by the measured calibration
    // times the number of images in the run — the schedule is per image, and
    // the calibration tracks amortized per-image batch cost, so an n-image
    // batch prices at n times the per-image estimate. The executor then
    // sheds the run at the first layer boundary where the deadline can no
    // longer be met — for a batch that was never feasible, that is layer 0,
    // before any work is wasted on it.
    const bool exec_aware = !m.remaining_us.empty();
    const auto arm_token = [&](Clock::time_point dl, std::size_t n_images) {
      cancel.disarm();
      if (exec_aware && dl != Clock::time_point::max()) {
        cancel.arm(clock_, dl, m.remaining_us.data(), m.remaining_us.size(),
                   cost_scale * static_cast<double>(n_images));
      }
    };
    const auto shed_error = [] {
      return std::make_exception_ptr(ServerRejected(
          ServerRejected::Reason::kDeadlineExpired,
          "InferenceServer: in-flight work shed at a layer boundary (deadline "
          "unreachable)"));
    };
    // Per-request execution: the fallback that isolates a failing request to
    // its own outcome when a batched call of two or more throws (batch
    // neighbours are other clients' requests). Solo runs are governed by the
    // request's own deadline.
    const auto run_solo = [&](const Tensor& image, Clock::time_point deadline, Outcome& o) {
      arm_token(deadline, 1);
      const Clock::time_point r0 = clock_->now();
      try {
        o.logits = exec->run(image, nullptr, &cancel);
        o.exec_us = micros_between(r0, clock_->now());
        o.ran = true;
      } catch (const ExecutionCancelled&) {
        o.shed = true;
        o.error = shed_error();
      } catch (...) {
        o.error = std::current_exception();
      }
    };
    if (build_error != nullptr) {
      for (Outcome& o : outcomes) o.error = build_error;
    } else {
      // Up-front shape validation: a bad request fails on its own here
      // and never enters the batch, so its neighbours still ride the single
      // batched executor call.
      staging.clear();
      staged_req.clear();
      Clock::time_point latest_deadline = Clock::time_point::min();
      for (std::size_t i = 0; i < task.requests.size(); ++i) {
        Request& r = task.requests[i];
        if (m.input_chw.size() == 3) {
          try {
            check_input_image(r.image, m.input_chw);
          } catch (...) {
            outcomes[i].error = std::current_exception();
            continue;
          }
        }
        staging.push_back(std::move(r.image));
        staged_req.push_back(i);
        latest_deadline = std::max(latest_deadline, r.deadline);
      }
      if (!staging.empty()) {
        // Armed with the LATEST member deadline: the batch runs (and members
        // whose own deadline lapsed deliver late) as long as ANY member's
        // SLO is still reachable; a deadline-free member disables shedding
        // outright, because the batch must complete for it.
        arm_token(latest_deadline, staging.size());
        const Clock::time_point exec_t0 = clock_->now();
        std::exception_ptr batch_error;
        bool batch_shed = false;
        try {
          exec->run_batch_view(std::span<const Tensor>(staging.data(), staging.size()),
                               nullptr, &cancel);
        } catch (const ExecutionCancelled&) {
          batch_shed = true;
        } catch (...) {
          batch_error = std::current_exception();
        }
        if (batch_shed) {
          // Deliberate shed: no member could meet its SLO, so the run was
          // abandoned at a layer boundary. No per-image fallback — re-running
          // doomed work is exactly the waste this path removes. The arena is
          // rewritten wholesale by the next run, so nothing partial escapes.
          for (std::size_t k = 0; k < staging.size(); ++k) {
            Outcome& o = outcomes[staged_req[k]];
            o.shed = true;
            o.error = shed_error();
          }
        } else if (batch_error == nullptr) {
          const double per_image_us = micros_between(exec_t0, clock_->now()) /
                                      static_cast<double>(staging.size());
          for (std::size_t k = 0; k < staging.size(); ++k) {
            Outcome& o = outcomes[staged_req[k]];
            o.logits = exec->logits_view(static_cast<int>(k)).to_qtensor();
            o.exec_us = per_image_us;
            o.ran = true;
          }
        } else if (staging.size() == 1) {
          outcomes[staged_req[0]].error = batch_error;  // nobody to isolate it from
        } else {
          for (std::size_t k = 0; k < staging.size(); ++k) {
            run_solo(staging[k], task.requests[staged_req[k]].deadline, outcomes[staged_req[k]]);
          }
        }
      }
    }
    cancel.disarm();
    const Clock::time_point done = clock_->now();

    std::size_t ok = 0;
    std::size_t shed_n = 0;
    double exec_wall_us = 0.0;
    std::size_t exec_images = 0;
    for (const Outcome& o : outcomes) {
      if (o.shed) ++shed_n;
      if (o.ran) {
        exec_wall_us += o.exec_us;
        ++exec_images;
      }
      if (o.error == nullptr) ++ok;
    }

    // The admission ledger, then the completions (no lock held), then the
    // rest of the bookkeeping: a stats read made after a request settles
    // already counts it, only the counters sit between the run and the
    // caller, and once drain() observes this worker idle every completion
    // has returned and every latency sample is recorded. The locks are
    // taken one at a time, never nested.
    lock.lock();
    AdmissionCounters& adm = m.counters.admission;
    adm.completed += ok;
    adm.shed += shed_n;
    m.counters.deadline_expired += shed_n;  // in-flight sheds count with queue purges
    adm.failed += task.requests.size() - ok - shed_n;
    lock.unlock();
    for (std::size_t i = 0; i < task.requests.size(); ++i) {
      task.requests[i].done(std::move(outcomes[i].logits), outcomes[i].error);
    }
    {
      // A request shed mid-run records no latency sample (like a queue purge).
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      for (std::size_t i = 0; i < task.requests.size(); ++i) {
        const Outcome& o = outcomes[i];
        if (o.shed) continue;
        const double e2e_us = micros_between(task.requests[i].arrival, done);
        m.latency.record(e2e_us);
        global_latency_.record(e2e_us);
        if (o.ran) {
          m.exec_latency.record(o.exec_us);
          global_exec_latency_.record(o.exec_us);
        }
      }
    }

    lock.lock();
    if (built) self.warm.push_back(task.model);
    if (exec_images > 0 && exec_wall_us > 0.0 && !m.remaining_us.empty() &&
        m.remaining_us.front() > 0.0) {
      // Calibrate the cost model against reality: EWMA of measured-over-
      // predicted per-image executor time, folded into every future estimate
      // and armed token. Zero measurements (manual clock) leave it alone.
      const double ratio =
          (exec_wall_us / static_cast<double>(exec_images)) / m.remaining_us.front();
      m.cost_scale = m.cost_scale_valid ? 0.2 * ratio + 0.8 * m.cost_scale : ratio;
      m.cost_scale_valid = true;
    }
    self.busy = false;
    --busy_workers_;
    sched_cv_.notify_one();  // a worker freed up: more batches may dispatch
    idle_cv_.notify_all();
  }
}

bool InferenceServer::idle_locked() const {
  if (busy_workers_ != 0 || settling_ != 0) return false;
  for (const auto& m : models_) {
    if (m->queued() != 0) return false;
  }
  for (const auto& w : worker_state_) {
    if (w->has_task) return false;
  }
  return true;
}

void InferenceServer::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  ++drain_waiters_;
  flush_ = true;  // dispatch everything queued, deadlines ignored
  sched_cv_.notify_all();
  idle_cv_.wait(lock, [&] { return idle_locked(); });
  // Restore deadline batching once the last drainer leaves (shutdown keeps
  // the flush on for good).
  if (--drain_waiters_ == 0 && accepting_) flush_ = false;
}

void InferenceServer::shutdown() {
  // Serializes concurrent shutdown()/destructor calls; never taken by the
  // server threads, so it cannot deadlock with mu_.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (joined_) return;
    accepting_ = false;  // new submits reject; kBlock waiters wake and reject
    flush_ = true;
    ++drain_waiters_;
    space_cv_.notify_all();
    sched_cv_.notify_all();
    idle_cv_.wait(lock, [&] { return idle_locked(); });
    --drain_waiters_;
    stop_threads_ = true;
    joined_ = true;
    sched_cv_.notify_all();
    for (const auto& w : worker_state_) w->cv.notify_all();
  }
  scheduler_.join();
  for (std::thread& w : workers_) w.join();
}

ModelStats InferenceServer::snapshot_locked(const ModelState& m) const {
  ModelStats s;
  static_cast<DispatchCounters&>(s) = m.counters;
  s.model = m.id;
  s.queue_depth = m.queued();
  s.weight = m.config.weight;
  s.mean_batch_size = mean_batch(s);
  return s;  // latency: summarized by the caller outside the lock;
             // dispatch_share: filled by the caller once the total is known
}

ServerStats InferenceServer::stats() const {
  // Three phases, each lock taken on its own: counters under mu_, raw
  // sample-window copies under stats_mu_ (so the copy blocks only latency
  // recording, never submit/dispatch), and the sort/summarize unlocked.
  // Counter and latency snapshots may straddle a completion; monitoring
  // does not need them transactionally consistent.
  ServerStats s;
  std::vector<const ModelState*> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& m : models_) {
      s += m->counters;
      s.queue_depth += m->queued();
      s.models.push_back(snapshot_locked(*m));
      order.push_back(m.get());  // stable: models are never unregistered
    }
    s.mean_batch_size = mean_batch(s);
    s.current_workers = live_workers_;
    s.peak_workers = peak_workers_;
    s.scale_up_events = scale_ups_;
    s.scale_down_events = scale_downs_;
    s.autoscale_evals = autoscale_evals_;
  }
  for (ModelStats& ms : s.models) ms.dispatch_share = ratio(ms.dispatched, s.dispatched);
  std::vector<std::vector<double>> model_samples;
  std::vector<std::vector<double>> model_exec_samples;
  std::vector<double> global_samples;
  std::vector<double> global_exec_samples;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    model_samples.reserve(order.size());
    model_exec_samples.reserve(order.size());
    for (const ModelState* m : order) {
      model_samples.push_back(m->latency.samples());
      model_exec_samples.push_back(m->exec_latency.samples());
    }
    global_samples = global_latency_.samples();
    global_exec_samples = global_exec_latency_.samples();
  }
  for (std::size_t i = 0; i < s.models.size(); ++i) {
    s.models[i].latency = LatencyRecorder::summarize(std::move(model_samples[i]));
    s.models[i].exec_latency = LatencyRecorder::summarize(std::move(model_exec_samples[i]));
  }
  s.latency = LatencyRecorder::summarize(std::move(global_samples));
  s.exec_latency = LatencyRecorder::summarize(std::move(global_exec_samples));
  return s;
}

ModelStats InferenceServer::model_stats(const std::string& model_id) const {
  ModelStats s;
  const ModelState* found = nullptr;
  std::uint64_t total_dispatched = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    found = find_model_locked(model_id);
    check(found != nullptr, "InferenceServer::model_stats: unknown model '" + model_id + "'");
    for (const auto& m : models_) total_dispatched += m->counters.dispatched;
    s = snapshot_locked(*found);
  }
  s.dispatch_share = ratio(s.dispatched, total_dispatched);
  std::vector<double> samples;
  std::vector<double> exec_samples;
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    samples = found->latency.samples();
    exec_samples = found->exec_latency.samples();
  }
  s.latency = LatencyRecorder::summarize(std::move(samples));
  s.exec_latency = LatencyRecorder::summarize(std::move(exec_samples));
  return s;
}

void InferenceServer::reset_stats() {
  // The models_ vector may only be walked under mu_ (register_model can
  // reallocate it); collect the stable pointers there, then clear the
  // recorders under stats_mu_.
  std::vector<ModelState*> order;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& m : models_) {
      m->counters = DispatchCounters{};
      order.push_back(m.get());
    }
    scale_ups_ = 0;
    scale_downs_ = 0;
    autoscale_evals_ = 0;
    peak_workers_ = live_workers_;
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  for (ModelState* m : order) {
    m->latency.clear();
    m->exec_latency.clear();
  }
  global_latency_.clear();
  global_exec_latency_.clear();
}

int InferenceServer::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return live_workers_;
}

std::vector<std::string> InferenceServer::model_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(models_.size());
  for (const auto& m : models_) ids.push_back(m->id);
  return ids;
}

}  // namespace bswp::runtime
