#include "runtime/serving_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>

namespace bswp::runtime {

namespace {

using WallClock = std::chrono::steady_clock;

double micros_since(WallClock::time_point t0) {
  return std::chrono::duration<double, std::micro>(WallClock::now() - t0).count();
}

}  // namespace

/// One in-flight batch, shared between run() and the workers.
struct ServingPool::Batch {
  std::span<const Tensor> images;
  std::vector<QTensor>* out = nullptr;
  std::vector<double>* lat_us = nullptr;
  int threads = 0;  // pool threads joining the caller (ids < threads)

  std::atomic<std::size_t> next{0};   // work-stealing cursor
  std::atomic<bool> failed{false};    // set on first error; stops stealing
  std::exception_ptr error;           // first error (guarded by err_mu)
  std::mutex err_mu;
  int active = 0;  // pool threads still running (guarded by pool mu_)

  void fail() {
    {
      std::lock_guard<std::mutex> lock(err_mu);
      if (!error) error = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  }
};

ServingPool::ServingPool(const CompiledNetwork& net) : net_(&net) {
  check(!net.plans.empty(), "ServingPool: empty network");
}

ServingPool::~ServingPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ServingPool::ensure_workers(int n) {
  std::lock_guard<std::mutex> lock(mu_);
  while (static_cast<int>(threads_.size()) < n) {
    const int id = static_cast<int>(threads_.size());
    threads_.emplace_back([this, id] { worker_main(id); });
  }
}

void ServingPool::steal_chunks(Batch& b, std::unique_ptr<Executor>& exec) const {
  // The executor is built on its participant's first batch and reused for
  // the life of the pool: the arena stays warm across batches.
  if (exec == nullptr) {
    try {
      exec = std::make_unique<Executor>(*net_, kExecBatch);
    } catch (...) {
      b.fail();
      return;
    }
  }
  // Each steal claims up to kExecBatch contiguous images and runs them as
  // ONE batched executor call (bit-identical to per-image execution).
  // Checking the failure flag here (not just the cursor) is the early-exit
  // contract: once any chunk fails, no participant starts another chunk and
  // the rest of the queue drains unexecuted.
  constexpr auto chunk = static_cast<std::size_t>(kExecBatch);
  while (!b.failed.load(std::memory_order_acquire)) {
    const std::size_t i = b.next.fetch_add(chunk, std::memory_order_relaxed);
    if (i >= b.images.size()) break;
    const std::size_t n = std::min(chunk, b.images.size() - i);
    const WallClock::time_point t0 = WallClock::now();
    try {
      exec->run_batch_view(b.images.subspan(i, n));
      // Per-image latency under batched execution is the amortized share
      // of the chunk's wall time — the quantity a capacity planner needs.
      const double per_image = micros_since(t0) / static_cast<double>(n);
      for (std::size_t k = 0; k < n; ++k) {
        (*b.out)[i + k] = exec->logits_view(static_cast<int>(k)).to_qtensor();
        (*b.lat_us)[i + k] = per_image;
      }
    } catch (...) {
      b.fail();
    }
  }
}

void ServingPool::worker_main(int id) {
  std::unique_ptr<Executor> exec;
  std::uint64_t seen = 0;
  for (;;) {
    Batch* b = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || (batch_ != nullptr && generation_ != seen); });
      if (stop_) return;
      seen = generation_;
      if (id >= batch_->threads) continue;  // this batch wants fewer threads
      b = batch_;
    }
    steal_chunks(*b, exec);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--b->active == 0) done_cv_.notify_all();
    }
  }
}

std::vector<QTensor> ServingPool::run(std::span<const Tensor> images, int n_workers,
                                      BatchStats* stats) {
  check(n_workers >= 1, "ServingPool::run: n_workers must be >= 1");
  std::vector<QTensor> out(images.size());
  // `stats` is only assigned on success (below); a failed batch must not
  // clobber the caller's struct with partial numbers.
  if (images.empty()) {
    if (stats != nullptr) *stats = BatchStats{};
    return out;
  }

  std::lock_guard<std::mutex> run_lock(run_mu_);
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(n_workers), images.size()));
  std::vector<double> lat_us(images.size(), 0.0);
  const WallClock::time_point t_batch = WallClock::now();

  Batch b;
  b.images = images;
  b.out = &out;
  b.lat_us = &lat_us;
  b.threads = workers - 1;
  b.active = workers - 1;
  if (b.threads > 0) {
    ensure_workers(b.threads);
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_ = &b;
      ++generation_;
    }
    cv_.notify_all();
  }
  steal_chunks(b, caller_exec_);
  if (b.threads > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return b.active == 0; });
    batch_ = nullptr;
  }
  if (b.error) std::rethrow_exception(b.error);

  if (stats != nullptr) {
    BatchStats s;
    s.images = images.size();
    s.workers = workers;
    s.wall_seconds = std::chrono::duration<double>(WallClock::now() - t_batch).count();
    s.throughput_ips =
        s.wall_seconds > 0.0 ? static_cast<double>(images.size()) / s.wall_seconds : 0.0;
    s.latency = LatencyRecorder::summarize(std::move(lat_us));
    *stats = s;
  }
  return out;
}

}  // namespace bswp::runtime
