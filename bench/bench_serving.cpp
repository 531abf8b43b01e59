// Serving-path benchmark: steady-state throughput and heap-allocation count
// of the arena Executor / ServingPool versus the per-run-allocation
// execution style the runtime had before the arena refactor.
//
//   columns: engine              executions  allocs/run  img/s  p50/p95/p99 us
//
// "fresh-executor" rebuilds an Executor per image — every activation slot
// and the scratch region are re-allocated each run, which is exactly the
// allocation profile of the old allocate-per-layer engine (one vector per
// layer per run) collapsed into one block. "arena (reused)" is the
// steady-state path: zero allocations per run. The worker rows measure
// Session::run_batch on the persistent pool at 1/2/4/8 workers (the caller
// plus workers - 1 pool threads, each stealing 8-image batched chunks).
//
// Emits BENCH_serving.json (bench::JsonWriter) for scripts/bench_compare.sh.
#include <chrono>
#include <cstdio>

#include "common.h"
#include "core/counting_allocator.h"

namespace bswp::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int run_bench() {
  // Untrained pooled ResNet-s (BN stats seeded): engine throughput depends
  // only on geometry, so training would be wasted bench time.
  BenchDataset d = cifar_like();
  d.model_opts.width = 0.5f;
  nn::Graph graph = models::build_resnet_s(d.model_opts);
  Rng rng(7);
  graph.init_weights(rng);

  pool::CodecOptions co;
  co.pool_size = 64;
  co.kmeans_iters = 5;
  co.max_cluster_vectors = 4000;
  quant::CalibrateOptions qo;
  qo.num_samples = 32;
  Session session = Deployment::from(graph)
                        .with_pool(co)
                        .seed_batchnorm(16)
                        .calibrate(*d.train, qo)
                        .compile();

  // Host arena (what every engine below actually allocates); the MCU
  // deployment plan is bit-packed and smaller.
  std::printf("bench_serving: pooled ResNet-s width=%.2f, %zu plans, host arena %.1f kB\n",
              d.model_opts.width, session.network().plans.size(),
              static_cast<double>(runtime::Executor(session.network()).arena_bytes()) / 1024.0);

  JsonWriter jw;
  jw.add("smoke_mode", smoke_mode());
  const int kIters = smoke_scaled(48, 12);
  std::vector<Tensor> images;
  for (int i = 0; i < kIters; ++i) {
    Tensor x({1, 3, d.model_opts.image_size, d.model_opts.image_size});
    d.train->sample(i % d.train->size(), x.data());
    images.push_back(std::move(x));
  }

  std::printf("%-22s %10s %11s %9s %9s %9s %9s\n", "engine", "images", "allocs/img",
              "img/s", "p50 us", "p95 us", "p99 us");

  // 1. Fresh executor per image: the pre-arena allocation profile.
  {
    runtime::Executor(session.network()).run_view(images[0]);  // warm caches
    const std::uint64_t a0 = alloc_count();
    const Clock::time_point t0 = Clock::now();
    for (const Tensor& x : images) {
      runtime::Executor exec(session.network());
      exec.run_view(x);
    }
    const double dt = seconds_since(t0);
    std::printf("%-22s %10d %11.1f %9.0f %9s %9s %9s\n", "fresh-executor", kIters,
                static_cast<double>(alloc_count() - a0) / kIters, kIters / dt, "-", "-", "-");
    jw.add("fresh_executor_ips", kIters / dt);
    jw.add("fresh_executor_allocs_per_img", static_cast<double>(alloc_count() - a0) / kIters);
  }

  // 2. Reused arena executor: steady-state zero-allocation inference.
  {
    runtime::Executor exec(session.network());
    exec.run_view(images[0]);  // warm-up
    const std::uint64_t a0 = alloc_count();
    const Clock::time_point t0 = Clock::now();
    for (const Tensor& x : images) exec.run_view(x);
    const double dt = seconds_since(t0);
    std::printf("%-22s %10d %11.1f %9.0f %9s %9s %9s\n", "arena (reused)", kIters,
                static_cast<double>(alloc_count() - a0) / kIters, kIters / dt, "-", "-", "-");
    jw.add("arena_reused_ips", kIters / dt);
    jw.add("arena_reused_allocs_per_img", static_cast<double>(alloc_count() - a0) / kIters);
  }

  // 3. Persistent serving pool at 1/2/4/8 workers (second batch per count so
  // the pool and its per-worker arenas are warm).
  for (int workers : {1, 2, 4, 8}) {
    session.run_batch(images, workers);  // warm the pool
    const BatchResult r = session.run_batch_stats(images, workers);
    char label[32];
    std::snprintf(label, sizeof(label), "serving-pool x%d", workers);
    std::printf("%-22s %10zu %11s %9.0f %9.0f %9.0f %9.0f\n", label, r.stats.images, "-",
                r.stats.throughput_ips, r.stats.latency.p50_us, r.stats.latency.p95_us,
                r.stats.latency.p99_us);
    const std::string prefix = "pool_x" + std::to_string(workers);
    jw.add(prefix + "_ips", r.stats.throughput_ips);
    jw.add(prefix + "_p50_us", r.stats.latency.p50_us);
    jw.add(prefix + "_p99_us", r.stats.latency.p99_us);
  }
  jw.write("BENCH_serving.json");
  return 0;
}

}  // namespace
}  // namespace bswp::bench

int main() { return bswp::bench::run_bench(); }
