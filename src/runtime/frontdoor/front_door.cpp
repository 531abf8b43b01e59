#include "runtime/frontdoor/front_door.h"

#include <chrono>
#include <exception>
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

/// A shard the ring may route to: healthy, or probing after a cooldown.
bool routable(ShardHealth h) { return h == ShardHealth::kHealthy || h == ShardHealth::kProbing; }

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

// One accepted request from submit() until its front-door future resolves.
// Shared with the completion of the shard that holds it; a failover hands
// it to the next live shard's completion.
struct FrontDoor::Pending {
  RequestKey key;
  std::string model_id;
  Tensor image;  // retained for a failover retry on another shard
  RequestClass cls = RequestClass::kNormal;
  std::promise<QTensor> promise;
  Clock::time_point arrival;
  int owner = 0;            // ring owner ignoring health (takeover metric)
  std::vector<int> tried;   // shards that already failed this request
};

struct FrontDoor::ShardState {
  explicit ShardState(const ServerOptions& opts)
      : server(std::make_unique<InferenceServer>(opts)), latency(kLatencyWindow) {}

  std::unique_ptr<InferenceServer> server;

  // --- guarded by FrontDoor::mu_ ---
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
  ++submitted_;
  if (!accepting_) {
    ++failed_;
    lock.unlock();
    promise.set_exception(std::make_exception_ptr(ServerRejected(
        ServerRejected::Reason::kShutdown, "FrontDoor: shutting down")));
    return future;
  }
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
  // Pending before any shard sees it: the shard may settle it (and a
  // failover may resolve it) before its submit returns.
  ++pending_total_;
  lock.unlock();

  auto p = std::make_shared<Pending>();
  p->key = key;
  p->model_id = model_id;
  p->image = std::move(image);
  p->cls = cls;
  p->promise = std::move(promise);
  p->arrival = arrival;
  p->owner = ring_.shard_for(key.lo);
  forward(std::move(p), nullptr);
  return future;
}

void FrontDoor::forward(std::shared_ptr<Pending> p, std::exception_ptr fault) {
  std::unique_lock<std::mutex> lock(mu_);
  const int target = route_locked(p->key.lo, clock_->now(), p->tried);
  if (target < 0) {
    ++failed_;
    lock.unlock();
    if (fault == nullptr) {
      fault = std::make_exception_ptr(
          ServerRejected(ServerRejected::Reason::kUnhealthy, "FrontDoor: no routable shard"));
    }
    resolve(*p, QTensor{}, std::move(fault));
    return;
  }
  ShardState& st = *shards_[static_cast<std::size_t>(target)];
  ++st.routed;
  if (target != p->owner) ++st.takeovers;
  if (fault != nullptr) ++failovers_;
  lock.unlock();

  // Shard admission outside mu_: a QueuePolicy::kBlock submit may wait for
  // queue space, and the shard may run the completion before it returns.
  // The shard gets a copy; the original stays for a failover retry.
  SubmitOptions so;
  so.cls = p->cls;
  try {
    st.server->submit(p->model_id, Tensor(p->image), so,
                      [this, p, target](QTensor logits, std::exception_ptr error) {
                        on_shard_done(p, target, std::move(logits), std::move(error));
                      });
  } catch (...) {
    // Synchronous admission throw (unknown model id): not a ServerRejected,
    // so a client error — no breaker, no failover.
    on_shard_done(std::move(p), target, QTensor{}, std::current_exception());
  }
  lock.lock();
  ++shard_submits_;
  drain_cv_.notify_all();
}

void FrontDoor::on_shard_done(std::shared_ptr<Pending> p, int sid, QTensor logits,
                              std::exception_ptr error) {
  ShardState& st = *shards_[static_cast<std::size_t>(sid)];
  const Clock::time_point now = clock_->now();
  if (error == nullptr) {
    cache_.put(p->key, logits);
    {
      std::lock_guard<std::mutex> slock(stats_mu_);
      st.latency.record(elapsed_us(p->arrival, now));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
      breaker_success_locked(st);
    }
    resolve(*p, std::move(logits), nullptr);
    return;
  }

  // A ServerRejected is a shard fault: feed the breaker and retry on the
  // next live shard (forward() gives the caller this error when none is
  // left). Anything else would fail on any shard: propagate it.
  bool shard_fault = false;
  bool shard_stopped = false;
  try {
    std::rethrow_exception(error);
  } catch (const ServerRejected& e) {
    shard_fault = true;
    shard_stopped = e.reason() == ServerRejected::Reason::kShutdown;
  } catch (...) {
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!shard_fault) {
    ++failed_;
    lock.unlock();
    resolve(*p, QTensor{}, std::move(error));
    return;
  }
  ++st.failures;
  breaker_failure_locked(st, shard_stopped, now);
  p->tried.push_back(sid);
  lock.unlock();
  forward(std::move(p), std::move(error));
}

void FrontDoor::resolve(Pending& p, QTensor logits, std::exception_ptr error) {
  if (error != nullptr) {
    p.promise.set_exception(std::move(error));
  } else {
    p.promise.set_value(std::move(logits));
  }
  // Retired only after the promise is set: drain() returns on a zero count,
  // and every accepted future must be ready by then.
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_total_ == 0) drain_cv_.notify_all();
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
    if (routable(shards_[static_cast<std::size_t>(c)]->health) &&
        std::find(tried.begin(), tried.end(), c) == tried.end()) {
      return c;
    }
  }
  return -1;
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

void FrontDoor::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_total_ != 0) {
    // Flush every shard outside mu_. A failover may land work on a shard
    // whose drain already returned; its submit then bumps shard_submits_,
    // which wakes this wait for another flush.
    const std::uint64_t seen = shard_submits_;
    lock.unlock();
    for (auto& st : shards_) st->server->drain();  // a stopped shard returns at once
    lock.lock();
    drain_cv_.wait(lock, [&] { return pending_total_ == 0 || shard_submits_ != seen; });
  }
}

void FrontDoor::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
  }
  drain();  // every accepted front-door future resolves before the shards stop
  for (auto& st : shards_) st->server->shutdown();  // idempotent
}

void FrontDoor::stop_shard(int shard) {
  check(shard >= 0 && shard < static_cast<int>(shards_.size()),
        "FrontDoor: stop_shard index out of range");
  ShardState& st = *shards_[static_cast<std::size_t>(shard)];
  {
    // Mark first so new submits route around the shard immediately; its
    // already-accepted requests drain inside server->shutdown() below, so
    // their completions still deliver values.
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
      if (routable(st.health)) ++out.healthy_shards;
    }
  }
  for (auto& s : out.shard_stats) {
    s.dispatch_share = total_routed > 0 ? static_cast<double>(s.routed) /
                                              static_cast<double>(total_routed)
                                        : 0.0;
  }

  // Copy the recorders under stats_mu_, then merge + summarize outside it
  // (summaries sort; the sort must not stall the completions' record path).
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
    if (routable(st->health)) ++n;
  }
  return n;
}

int FrontDoor::shard_for(const std::string& model_id,
                         const Tensor& image) const {
  return ring_.shard_for(RequestKey::of(model_id, image).lo);
}

}  // namespace bswp::runtime
