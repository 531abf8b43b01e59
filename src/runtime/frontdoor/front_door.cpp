#include "runtime/frontdoor/front_door.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/tensor.h"

namespace bswp::runtime {

namespace {

/// Virtual nodes per shard on the consistent-hash ring: enough for an even
/// key split over the handful of shards one process hosts.
constexpr int kVnodesPerShard = 64;

/// Front-door end-to-end latency samples retained per shard and for cache
/// hits. Cluster percentiles merge these windows (LatencyRecorder::merge),
/// never average per-shard percentiles.
constexpr std::size_t kLatencyWindow = 1 << 16;

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

// One accepted request from submit() until its front-door future resolves.
// Lives in exactly one shard's pending deque at a time; a failover retry
// moves it (with a fresh shard future) to the next live shard's deque.
struct FrontDoor::Pending {
  RequestKey key;
  std::string model_id;
  Tensor image;  // retained for a mid-flight retry on another shard
  RequestClass cls = RequestClass::kNormal;
  std::promise<QTensor> promise;
  std::future<QTensor> shard_future;
  Clock::time_point arrival;
  int owner = 0;            // ring owner ignoring health (takeover metric)
  std::vector<int> tried;   // shards that already failed this request
};

struct FrontDoor::ShardState {
  explicit ShardState(const ServerOptions& opts)
      : server(std::make_unique<InferenceServer>(opts)), latency(kLatencyWindow) {}

  std::unique_ptr<InferenceServer> server;
  std::thread forwarder;

  // --- guarded by FrontDoor::mu_ ---
  std::condition_variable cv;   // wakes this shard's forwarder
  std::deque<Pending> pending;  // FIFO: head-of-line wait order == submit order
  ShardHealth health = ShardHealth::kHealthy;
  int fail_streak = 0;          // consecutive shard faults while healthy
  int ok_streak = 0;            // consecutive successes while probing
  Clock::time_point tripped_at{};
  std::uint64_t routed = 0;
  std::uint64_t takeovers = 0;
  std::uint64_t failures = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t breaker_recoveries = 0;

  // --- guarded by FrontDoor::stats_mu_ ---
  LatencyRecorder latency;  // e2e µs of requests this shard served
};

FrontDoor::FrontDoor(const FrontDoorOptions& options)
    : options_(options),
      clock_(options.server.clock != nullptr ? options.server.clock : &steady_clock_ref()),
      ring_(options.shards, kVnodesPerShard),
      cache_(options.cache_capacity),
      cache_latency_(kLatencyWindow) {
  check(options.shards >= 1, "FrontDoor: shards must be >= 1");
  check(options.breaker.unhealthy_after >= 1,
        "FrontDoor: breaker.unhealthy_after must be >= 1");
  check(options.breaker.healthy_after >= 1,
        "FrontDoor: breaker.healthy_after must be >= 1");
  check(options.breaker.cooldown.count() >= 0,
        "FrontDoor: breaker.cooldown must be >= 0");
  shards_.reserve(static_cast<std::size_t>(options.shards));
  for (int s = 0; s < options.shards; ++s) {
    shards_.push_back(std::make_unique<ShardState>(options.server));
  }
  for (int s = 0; s < options.shards; ++s) {
    shards_[static_cast<std::size_t>(s)]->forwarder =
        std::thread(&FrontDoor::forwarder_main, this, s);
  }
}

FrontDoor::~FrontDoor() { shutdown(); }

void FrontDoor::register_model(const std::string& model_id,
                               const CompiledNetwork& net) {
  for (auto& st : shards_) st->server->register_model(model_id, net);
}

void FrontDoor::register_model(const std::string& model_id,
                               const CompiledNetwork& net,
                               const ModelConfig& config) {
  for (auto& st : shards_) st->server->register_model(model_id, net, config);
}

std::future<QTensor> FrontDoor::submit(const std::string& model_id,
                                       Tensor image, RequestClass cls) {
  const Clock::time_point arrival = clock_->now();
  std::promise<QTensor> promise;
  std::future<QTensor> future = promise.get_future();

  const RequestKey key = RequestKey::of(model_id, image);  // outside any lock
  auto hit = cache_.get(key);

  std::unique_lock<std::mutex> lock(mu_);
  if (!accepting_) {
    ++submitted_;
    ++failed_;
    lock.unlock();
    promise.set_exception(std::make_exception_ptr(ServerRejected(
        ServerRejected::Reason::kShutdown, "FrontDoor: shutting down")));
    return future;
  }
  ++submitted_;

  if (hit) {
    ++completed_;
    lock.unlock();
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      cache_latency_.record(elapsed_us(arrival, clock_->now()));
    }
    promise.set_value(std::move(*hit));
    return future;
  }

  static const std::vector<int> kNothingTried;
  const int target = route_locked(key.lo, arrival, kNothingTried);
  if (target < 0) {
    ++failed_;
    lock.unlock();
    promise.set_exception(std::make_exception_ptr(
        ServerRejected(ServerRejected::Reason::kUnhealthy, "FrontDoor: no routable shard")));
    return future;
  }
  ShardState& st = *shards_[static_cast<std::size_t>(target)];
  const int owner = ring_.shard_for(key.lo);
  ++st.routed;
  if (target != owner) ++st.takeovers;
  lock.unlock();

  // Shard admission outside mu_: a QueuePolicy::kBlock submit may wait for
  // queue space, and no router state should be pinned meanwhile. The
  // shard gets a copy; the original stays for a mid-flight retry.
  std::future<QTensor> shard_future;
  try {
    shard_future = st.server->submit(model_id, Tensor(image), cls);
  } catch (...) {
    // Synchronous admission throw (unknown model id): a client error — it
    // would fail identically on every shard, so no breaker, no failover.
    lock.lock();
    ++failed_;
    lock.unlock();
    promise.set_exception(std::current_exception());
    return future;
  }

  Pending p;
  p.key = key;
  p.model_id = model_id;
  p.image = std::move(image);
  p.cls = cls;
  p.promise = std::move(promise);
  p.shard_future = std::move(shard_future);
  p.arrival = arrival;
  p.owner = owner;

  lock.lock();
  st.pending.push_back(std::move(p));
  ++pending_total_;
  st.cv.notify_one();
  return future;
}

void FrontDoor::forwarder_main(int sid) {
  ShardState& st = *shards_[static_cast<std::size_t>(sid)];
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    st.cv.wait(lock, [&] { return stop_forwarders_ || !st.pending.empty(); });
    if (st.pending.empty()) {
      if (stop_forwarders_) return;
      continue;
    }
    Pending p = std::move(st.pending.front());
    st.pending.pop_front();
    lock.unlock();

    // Wait for the shard outside every lock; classify the outcome.
    QTensor result;
    bool ok = false;
    bool shard_stopped = false;
    std::exception_ptr shard_fault;  // rejection: breaker + failover
    std::exception_ptr client_error; // would fail on any shard: propagate
    try {
      result = p.shard_future.get();
      ok = true;
    } catch (const ServerRejected& e) {
      shard_stopped = e.reason() == ServerRejected::Reason::kShutdown;
      shard_fault = std::current_exception();
    } catch (...) {
      client_error = std::current_exception();
    }
    const Clock::time_point now = clock_->now();

    if (ok) {
      cache_.put(p.key, result);
      {
        std::lock_guard<std::mutex> slock(stats_mu_);
        st.latency.record(elapsed_us(p.arrival, now));
      }
      lock.lock();
      ++completed_;
      breaker_success_locked(st);
      lock.unlock();
      p.promise.set_value(std::move(result));
      lock.lock();
      pending_done_locked();
      continue;
    }

    if (client_error) {
      lock.lock();
      ++failed_;
      lock.unlock();
      p.promise.set_exception(client_error);
      lock.lock();
      pending_done_locked();
      continue;
    }

    // Shard fault: feed the breaker, then retry on the next live shard, or
    // give the caller the shard's error when none is left.
    lock.lock();
    ++st.failures;
    breaker_failure_locked(st, shard_stopped, now);
    p.tried.push_back(sid);
    const int next = route_locked(p.key.lo, now, p.tried);
    if (next < 0) {
      ++failed_;
      lock.unlock();
      p.promise.set_exception(shard_fault);
      lock.lock();
      pending_done_locked();
      continue;
    }
    ShardState& nst = *shards_[static_cast<std::size_t>(next)];
    ++failovers_;
    ++nst.routed;
    if (next != p.owner) ++nst.takeovers;
    lock.unlock();
    std::future<QTensor> retry_future;
    bool resubmitted = false;
    try {
      retry_future = nst.server->submit(p.model_id, Tensor(p.image), p.cls);
      resubmitted = true;
    } catch (...) {
      client_error = std::current_exception();
    }
    lock.lock();
    if (resubmitted) {
      p.shard_future = std::move(retry_future);
      // pending_total_ is unchanged: the request never left the pipeline.
      nst.pending.push_back(std::move(p));
      nst.cv.notify_one();
    } else {
      ++failed_;
      lock.unlock();
      p.promise.set_exception(client_error);
      lock.lock();
      pending_done_locked();
    }
  }
}

int FrontDoor::route_locked(std::uint64_t key, Clock::time_point now,
                            const std::vector<int>& tried) {
  // Lazy cooldown refresh: an open breaker whose cooldown has elapsed
  // becomes probing (routable) the next time anyone routes.
  for (auto& sp : shards_) {
    if (sp->health == ShardHealth::kUnhealthy &&
        now - sp->tripped_at >= options_.breaker.cooldown) {
      sp->health = ShardHealth::kProbing;
      sp->ok_streak = 0;
      ++ring_rebalances_;
    }
  }
  for (int c : ring_.candidates(key)) {
    if (routable_locked(c) && std::find(tried.begin(), tried.end(), c) == tried.end()) return c;
  }
  return -1;
}

bool FrontDoor::routable_locked(int sid) const {
  const ShardState& st = *shards_[static_cast<std::size_t>(sid)];
  if (st.health != ShardHealth::kHealthy &&
      st.health != ShardHealth::kProbing) {
    return false;
  }
  // Defensive: a shard being shut down concurrently (stop_shard between
  // health mark and server shutdown) stops accepting before its state
  // reads kStopped. mu_ -> server mutex ordering is safe: the server never
  // calls back into the front door.
  return st.server->accepting();
}

void FrontDoor::breaker_success_locked(ShardState& st) {
  st.fail_streak = 0;
  if (st.health == ShardHealth::kProbing) {
    if (++st.ok_streak >= options_.breaker.healthy_after) {
      st.health = ShardHealth::kHealthy;
      st.ok_streak = 0;
      ++st.breaker_recoveries;
      // No ring_rebalances_: probing shards were already routable, so the
      // routable set did not change.
    }
  }
}

void FrontDoor::breaker_failure_locked(ShardState& st, bool shard_stopped,
                                       Clock::time_point now) {
  st.ok_streak = 0;
  if (st.health == ShardHealth::kStopped) return;
  if (shard_stopped) {
    // The shard's server refused with kShutdown: it is gone for good —
    // nothing to probe, route around it immediately.
    st.health = ShardHealth::kStopped;
    ++ring_rebalances_;
    return;
  }
  switch (st.health) {
    case ShardHealth::kProbing:
      // A probe failed: re-open instantly, restart the cooldown.
      st.health = ShardHealth::kUnhealthy;
      st.tripped_at = now;
      ++st.breaker_trips;
      ++ring_rebalances_;
      break;
    case ShardHealth::kHealthy:
      if (++st.fail_streak >= options_.breaker.unhealthy_after) {
        st.health = ShardHealth::kUnhealthy;
        st.tripped_at = now;
        st.fail_streak = 0;
        ++st.breaker_trips;
        ++ring_rebalances_;
      }
      break;
    default:
      break;  // kUnhealthy: cooldown already running
  }
}

void FrontDoor::pending_done_locked() {
  --pending_total_;
  if (pending_total_ == 0) drain_cv_.notify_all();
}

void FrontDoor::drain() {
  for (;;) {
    // Flush shard queues outside mu_ (a failover retry may land new work
    // on a shard after its drain returned — hence the outer loop).
    for (auto& st : shards_) {
      if (st->server->accepting()) st->server->drain();
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (pending_total_ == 0) return;
    drain_cv_.wait_for(lock, std::chrono::milliseconds(1),
                       [&] { return pending_total_ == 0; });
    if (pending_total_ == 0) return;
  }
}

void FrontDoor::shutdown() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    accepting_ = false;
  }
  drain();  // every accepted front-door future resolves before threads stop
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_forwarders_ = true;
    for (auto& st : shards_) st->cv.notify_all();
  }
  for (auto& st : shards_) {
    if (st->forwarder.joinable()) st->forwarder.join();
  }
  for (auto& st : shards_) st->server->shutdown();
  std::lock_guard<std::mutex> lock(mu_);
  joined_ = true;
}

void FrontDoor::stop_shard(int shard) {
  check(shard >= 0 && shard < static_cast<int>(shards_.size()),
        "FrontDoor: stop_shard index out of range");
  ShardState& st = *shards_[static_cast<std::size_t>(shard)];
  {
    // Mark first so new submits route around the shard immediately; its
    // already-accepted requests drain inside server->shutdown() below, so
    // their forwarder futures still resolve with values.
    std::lock_guard<std::mutex> lock(mu_);
    if (st.health != ShardHealth::kStopped) {
      st.health = ShardHealth::kStopped;
      ++ring_rebalances_;
    }
  }
  st.server->shutdown();  // outside mu_: it blocks on in-flight work
}

ClusterStats FrontDoor::stats() const {
  ClusterStats out;
  out.shards = static_cast<int>(shards_.size());
  out.shard_stats.resize(shards_.size());

  // Shard server snapshots first, without any front-door lock (each takes
  // the shard's own locks and sorts latency windows).
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.shard_stats[i].server = shards_[i]->server->stats();
  }

  std::uint64_t total_routed = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.submitted = submitted_;
    out.completed = completed_;
    out.failed = failed_;
    out.failovers = failovers_;
    out.ring_rebalances = ring_rebalances_;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const ShardState& st = *shards_[i];
      ShardStats& s = out.shard_stats[i];
      s.shard = static_cast<int>(i);
      s.health = st.health;
      s.routed = st.routed;
      s.takeovers = st.takeovers;
      s.failures = st.failures;
      s.breaker_trips = st.breaker_trips;
      s.breaker_recoveries = st.breaker_recoveries;
      total_routed += st.routed;
      if (st.health == ShardHealth::kHealthy ||
          st.health == ShardHealth::kProbing) {
        ++out.healthy_shards;
      }
    }
  }
  for (auto& s : out.shard_stats) {
    s.dispatch_share = total_routed > 0 ? static_cast<double>(s.routed) /
                                              static_cast<double>(total_routed)
                                        : 0.0;
  }

  // Copy the recorders under stats_mu_, then merge + summarize outside it
  // (summaries sort; the sort must not stall the forwarders' record path).
  std::vector<LatencyRecorder> windows;
  windows.reserve(shards_.size() + 1);
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    for (auto& st : shards_) windows.push_back(st->latency);
    windows.push_back(cache_latency_);
  }
  LatencyRecorder merged;  // unbounded: holds every retained sample
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    out.shard_stats[i].latency = windows[i].summary();
    merged.merge(windows[i]);
  }
  merged.merge(windows.back());
  out.latency = merged.summary();

  out.cache = cache_.stats();
  return out;
}

void FrontDoor::reset_stats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    submitted_ = completed_ = failed_ = failovers_ = ring_rebalances_ = 0;
    for (auto& st : shards_) {
      // Counters only: health, streaks and trip timestamps are operational
      // state, not statistics.
      st->routed = st->takeovers = st->failures = 0;
      st->breaker_trips = st->breaker_recoveries = 0;
    }
  }
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    for (auto& st : shards_) st->latency.clear();
    cache_latency_.clear();
  }
  cache_.reset_stats();  // counters only — resident entries stay warm
  for (auto& st : shards_) st->server->reset_stats();
}

int FrontDoor::shard_count() const { return static_cast<int>(shards_.size()); }

int FrontDoor::healthy_shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (auto& st : shards_) {
    if (st->health == ShardHealth::kHealthy ||
        st->health == ShardHealth::kProbing) {
      ++n;
    }
  }
  return n;
}

int FrontDoor::shard_for(const std::string& model_id,
                         const Tensor& image) const {
  return ring_.shard_for(RequestKey::of(model_id, image).lo);
}

InferenceServer& FrontDoor::shard(int i) {
  check(i >= 0 && i < static_cast<int>(shards_.size()),
        "FrontDoor: shard index out of range");
  return *shards_[static_cast<std::size_t>(i)]->server;
}

const InferenceServer& FrontDoor::shard(int i) const {
  check(i >= 0 && i < static_cast<int>(shards_.size()),
        "FrontDoor: shard index out of range");
  return *shards_[static_cast<std::size_t>(i)]->server;
}

}  // namespace bswp::runtime
