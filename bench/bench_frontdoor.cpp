// Cluster front-door benchmark: shard scaling, result-cache effectiveness,
// and shard-loss survival (see docs/frontdoor.md).
//
// Three sections:
//
//  1. Shard scaling: closed-loop saturated throughput of a 1-shard cluster
//     vs a 4-shard cluster (one worker per shard) on a skewed stream —
//     distinct inputs drawn zipf-ish from a small pool, so some ring keys
//     are much hotter than others and the consistent-hash spread (not a
//     uniform stream) is what is measured. The printed ratio is the
//     horizontal-scaling figure of merit; it approaches the shard count
//     only when the host has at least as many cores as shards (on a
//     single-core CI box the shards time-slice one core and the ratio is
//     honestly ~1x — the JSON records whatever this host produced).
//
//  2. Cache-hot workload: a small set of distinct inputs replayed many
//     times against a cache-enabled cluster. Reports the hit rate (>= 90%
//     for this replay ratio by construction) and verifies every response —
//     cached or computed — is bit-identical to Session::run.
//
//  3. Shard loss mid-run: open-loop submissions against 4 shards
//     (failover) while one shard is stopped partway through. Every
//     accepted future must resolve with logits — the "no accepted request
//     lost" guarantee — and the failover counter shows the rescued hops.
//
// Emits BENCH_frontdoor.json (bench::JsonWriter) for scripts/
// bench_compare.sh. Numbers under smoke mode (BSWP_BENCH_SMOKE=1, CI) are
// meaningless — only the code paths matter.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common.h"

namespace bswp::bench {
namespace {

using Clock = std::chrono::steady_clock;

runtime::FrontDoorOptions cluster_options(int shards) {
  runtime::FrontDoorOptions fo;
  fo.shards = shards;
  fo.server.workers = 1;  // scaling comes from shards, not in-shard pools
  fo.server.batching.max_batch = 8;
  fo.server.batching.max_delay = std::chrono::microseconds{500};
  fo.server.queue.capacity = 1024;
  fo.server.queue.policy = runtime::QueuePolicy::kBlock;
  return fo;
}

/// Closed-loop saturated throughput: fire all requests, drain, wall-clock.
double saturated_throughput(bswp::Cluster& cluster, const std::string& model,
                            std::span<const Tensor> images, int n) {
  // Warm-up so every shard has built its executor before timing.
  for (std::size_t i = 0; i < images.size(); ++i) {
    cluster.submit(model, images[i]);
  }
  cluster.drain();
  cluster.reset_stats();
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < n; ++i) {
    cluster.submit(model, images[static_cast<std::size_t>(i) % images.size()]);
  }
  cluster.drain();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  return s > 0.0 ? n / s : 0.0;
}

bool same_bits(const QTensor& a, const QTensor& b) {
  return a.shape == b.shape && a.bits == b.bits && a.is_signed == b.is_signed &&
         a.zero_point == b.zero_point && a.scale == b.scale &&
         a.data.size() == b.data.size() &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(int16_t)) == 0;
}

int run_bench() {
  // One untrained TinyConv (BN stats seeded) — front-door behaviour depends
  // only on network geometry, so training would be wasted bench time.
  BenchDataset d = cifar_like();
  d.model_opts.width = 0.5f;
  quant::CalibrateOptions qo;
  qo.num_samples = smoke_scaled(32, 8);
  nn::Graph g = models::build_tinyconv(d.model_opts);
  Rng rng(9);
  g.init_weights(rng);
  Session session =
      Deployment::from(g).seed_batchnorm(16).calibrate(*d.train, qo).compile();

  // Skewed image pool: image i is drawn with weight ~ 1/(i+1), so a few
  // ring keys carry most of the traffic.
  std::vector<Tensor> pool;
  for (int i = 0; i < 16; ++i) {
    Tensor x({1, 3, d.model_opts.image_size, d.model_opts.image_size});
    d.train->sample(i % d.train->size(), x.data());
    pool.push_back(std::move(x));
  }
  Rng zrng(17);
  std::vector<Tensor> skewed;
  double harm = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) harm += 1.0 / static_cast<double>(i + 1);
  for (int i = 0; i < 64; ++i) {
    double u = zrng.uniform() * harm;
    std::size_t pick = 0;
    for (; pick + 1 < pool.size(); ++pick) {
      u -= 1.0 / static_cast<double>(pick + 1);
      if (u <= 0.0) break;
    }
    skewed.push_back(pool[pick]);
  }

  JsonWriter jw;
  jw.add("smoke_mode", smoke_mode());
  const int n = smoke_scaled(600, 32);

  // --- Section 1: shard scaling --------------------------------------------
  print_header("bench_frontdoor: shard scaling (closed loop, skewed stream)");
  double tput1, tput4;
  {
    bswp::Cluster c1(cluster_options(1));
    c1.add("tiny", session);
    tput1 = saturated_throughput(c1, "tiny", skewed, n);
  }
  {
    bswp::Cluster c4(cluster_options(4));
    c4.add("tiny", session);
    tput4 = saturated_throughput(c4, "tiny", skewed, n);
  }
  const double ratio = tput1 > 0.0 ? tput4 / tput1 : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("1 shard: %8.0f img/s\n4 shards: %7.0f img/s\nscaling: %5.2fx "
              "(%u hardware threads — expect ~1x below 4)\n",
              tput1, tput4, ratio, cores);
  jw.add("shard1_throughput_per_s", tput1);
  jw.add("shard4_throughput_per_s", tput4);
  jw.add("shard_scaling_ratio", ratio);
  jw.add("hardware_threads", static_cast<int>(cores));

  // --- Section 2: cache-hot workload ---------------------------------------
  print_header("bench_frontdoor: idempotent result cache (hot replay)");
  {
    runtime::FrontDoorOptions fo = cluster_options(2);
    fo.cache_capacity = 256;
    bswp::Cluster c(fo);
    c.add("tiny", session);
    // Reference logits straight from the session — the bit-identity oracle.
    std::vector<QTensor> expect;
    for (const Tensor& img : pool) expect.push_back(session.run(img));

    // Cold pass: each distinct input once, then drain — the misses fill the
    // cache before the measured replay (a firehose of repeats submitted
    // before the first result lands would all miss: the cache stores
    // results, not in-flight promises). reset_stats() zeroes the counters
    // but keeps the entries warm.
    for (const Tensor& img : pool) c.submit("tiny", img);
    c.drain();
    c.reset_stats();

    std::vector<std::future<QTensor>> futures;
    const int hot_n = smoke_scaled(400, 32);
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < hot_n; ++i) {
      futures.push_back(
          c.submit("tiny", pool[static_cast<std::size_t>(i) % pool.size()]));
    }
    bool identical = true;
    for (int i = 0; i < hot_n; ++i) {
      identical = identical &&
                  same_bits(futures[static_cast<std::size_t>(i)].get(),
                            expect[static_cast<std::size_t>(i) % pool.size()]);
    }
    const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
    const runtime::ClusterStats s = c.stats();
    std::printf("%d requests over %zu distinct inputs: hit rate %.1f%% "
                "(hits %llu, misses %llu), %.0f req/s, bit-identical: %s\n",
                hot_n, pool.size(), 100.0 * s.cache.hit_rate,
                static_cast<unsigned long long>(s.cache.hits),
                static_cast<unsigned long long>(s.cache.misses),
                wall > 0.0 ? hot_n / wall : 0.0, identical ? "yes" : "NO");
    jw.add("cache_hit_rate", s.cache.hit_rate);
    jw.add("cache_hot_throughput_per_s", wall > 0.0 ? hot_n / wall : 0.0);
    jw.add("cache_bit_identical", identical);
  }

  // --- Section 3: shard loss mid-run ---------------------------------------
  print_header("bench_frontdoor: shard loss mid-run (failover)");
  {
    bswp::Cluster c(cluster_options(4));
    c.add("tiny", session);
    for (const Tensor& img : pool) c.submit("tiny", img);
    c.drain();
    c.reset_stats();

    const int kill_n = smoke_scaled(300, 32);
    std::vector<std::future<QTensor>> futures;
    futures.reserve(static_cast<std::size_t>(kill_n));
    for (int i = 0; i < kill_n; ++i) {
      futures.push_back(c.submit(
          "tiny", skewed[static_cast<std::size_t>(i) % skewed.size()]));
      if (i == kill_n / 3) c.stop_shard(1);  // mid-stream shard loss
    }
    std::uint64_t fulfilled = 0, errored = 0;
    for (auto& f : futures) {
      try {
        f.get();
        ++fulfilled;
      } catch (...) {
        ++errored;
      }
    }
    const runtime::ClusterStats s = c.stats();
    std::printf("accepted %d, fulfilled %llu, errored %llu, failover hops "
                "%llu, healthy shards %d/%d\n",
                kill_n, static_cast<unsigned long long>(fulfilled),
                static_cast<unsigned long long>(errored),
                static_cast<unsigned long long>(s.failovers), s.healthy_shards,
                s.shards);
    jw.add("kill_accepted", static_cast<std::uint64_t>(kill_n));
    jw.add("kill_fulfilled", fulfilled);
    jw.add("kill_lost", errored);
    jw.add("kill_failover_hops", s.failovers);
  }

  jw.write("BENCH_frontdoor.json");
  return 0;
}

}  // namespace
}  // namespace bswp::bench

int main() { return bswp::bench::run_bench(); }
