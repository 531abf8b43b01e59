// Async inference-server benchmark: open-loop Poisson arrivals against the
// InferenceServer.
//
// Four sections:
//
//  1. Offered load x batching deadline x worker count (two models,
//     alternating requests):
//       columns: workers offered/s deadline done shed achieved/s batch p50/p99
//     Open-loop means arrivals are scheduled ahead of time from an
//     exponential interarrival distribution and submitted at their scheduled
//     instant regardless of completions — the generator does not slow down
//     when the server does, so past saturation the bounded queue
//     (kShedOldest here) is what absorbs the excess and the shed column
//     shows it. Below saturation, achieved tracks offered and a longer
//     batching deadline trades p50/p99 latency for bigger batches; above
//     saturation, achieved plateaus at capacity, queues fill, latency is
//     dominated by queueing and shedding begins.
//
//  2. Skewed load, scheduling-policy sweep: one hot model (weight 8, 50% of
//     the traffic) and three cold registrations of the same ResNet-s
//     (weight 1 — identical batch cost isolates the scheduling policy) at
//     1.15x the pool's *measured* saturated throughput (two workers share
//     memory bandwidth, so capacity is probed with a closed-loop run, not
//     extrapolated from one executor), under plain round-robin and under
//     weighted deficit round-robin. The overload backlog has to land on
//     *some* queue. Round-robin serves the cold models promptly (their
//     demand is far below an equal share), so the hot model absorbs the
//     entire backlog: its queue pins at capacity, it sheds, and its p99 is
//     queueing-dominated. The weighted scheduler grants the hot model
//     8/11 ≈ 73% of slots — comfortably above its ~58% share of demand —
//     so the hot queue stays short (p99 drops severalfold) and the overload
//     lands on the cold queues instead, which is the declared priority
//     tradeoff: cold models run slower and shed some, but — one guaranteed
//     batch credit per cycle — never starve. Latency/counter columns are a
//     steady-state snapshot taken when arrivals end, so the final drain
//     does not smear the percentiles.
//
//  3. Autoscaler load step: a burst at ~2.5x one worker's capacity against
//     an autoscaling pool (min 1, max 4). The row shows the scale-up events
//     climbing to a stable peak during the burst, and the pool shrinking
//     back to min after it drains — grow/shrink counts equal means no
//     oscillation.
//
//  4. Overload SLO attainment: the same open-loop overload run twice, once
//     with queue-only deadline shedding and once with execution-aware
//     shedding (refuse-to-dispatch on the compiled plan's execution
//     estimate + layer-boundary cancellation). Execution-aware shedding
//     stops the worker from finishing doomed requests late, so the
//     attainment column rises and the met-request p99 falls — the payoff
//     docs/serving.md § execution-aware deadlines describes.
//
// Numbers under smoke mode (BSWP_BENCH_SMOKE=1, CI) are meaningless — only
// the code paths matter.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common.h"
#include "runtime/executor.h"
#include "runtime/server/inference_server.h"

namespace bswp::bench {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::microseconds;

struct LoadResult {
  runtime::ServerStats stats;
  double wall_seconds = 0.0;
};

/// Fire `n` requests at the server with Exp(offered_ips) interarrival times,
/// alternating between the registered models, then drain.
LoadResult run_open_loop(bswp::Session& resnet, bswp::Session& tiny, int workers,
                         microseconds deadline, double offered_ips, int n,
                         std::span<const Tensor> images) {
  runtime::ServerOptions so;
  so.workers = workers;
  so.batching.max_batch = 8;
  so.batching.max_delay = deadline;
  so.queue.capacity = 64;
  so.queue.policy = runtime::QueuePolicy::kShedOldest;

  bswp::Server server(so);
  server.add("resnet-s", resnet).add("tinyconv", tiny);
  // Warm-up: flood a full batch per worker per model (twice) so every
  // worker almost certainly builds both of its executors before timing —
  // a burst of k*max_batch requests forms k concurrent batches, which
  // spread across all free workers. reset_stats() then zeroes whatever the
  // warm-up recorded so the row reflects only the timed run.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 2 * workers * so.batching.max_batch; ++i) {
      server.submit(i % 2 == 0 ? "resnet-s" : "tinyconv", images[0]);
    }
    server.drain();
  }
  server.reset_stats();

  Rng rng(123);
  std::vector<std::future<QTensor>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  const Clock::time_point t0 = Clock::now();
  Clock::time_point next = t0;
  for (int i = 0; i < n; ++i) {
    // Exponential interarrival: -ln(1-u) / lambda.
    const double gap_s = -std::log(1.0 - rng.uniform()) / offered_ips;
    next += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next);
    futures.push_back(server.submit(i % 2 == 0 ? "resnet-s" : "tinyconv",
                                    images[static_cast<std::size_t>(i) % images.size()]));
  }
  server.drain();

  LoadResult r;
  r.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  // Consume every future (shed requests surface ServerRejected here; the
  // admission counters are the ground truth the table reports).
  for (std::future<QTensor>& f : futures) {
    try {
      f.get();
    } catch (const runtime::ServerRejected&) {
    }
  }
  r.stats = server.stats();
  return r;
}

void print_row(int workers, double offered_ips, microseconds deadline, const LoadResult& r) {
  const auto& s = r.stats;
  std::printf("%7d %10.0f %8lld %6llu %6llu %11.0f %6.2f %8.0f %8.0f\n", workers, offered_ips,
              static_cast<long long>(deadline.count()),
              static_cast<unsigned long long>(s.admission.completed),
              static_cast<unsigned long long>(s.admission.shed),
              r.wall_seconds > 0.0 ? static_cast<double>(s.admission.completed) / r.wall_seconds
                                   : 0.0,
              s.mean_batch_size, s.latency.p50_us, s.latency.p99_us);
}

/// Section 2: skewed load under one scheduling policy. One hot model at
/// `hot_frac` of the offered stream plus `n_cold` cold models evenly
/// splitting the rest, all on one 2-worker server with kShedOldest queues.
LoadResult run_skewed(bswp::Session& hot, bswp::Session& cold, int n_cold,
                      runtime::SchedulePolicy policy, int hot_weight, double offered_ips,
                      double hot_frac, int n, std::span<const Tensor> images) {
  runtime::ServerOptions so;
  so.workers = 2;
  so.schedule = policy;
  so.batching.max_batch = 8;
  so.batching.max_delay = microseconds{1000};
  so.queue.capacity = 64;
  so.queue.policy = runtime::QueuePolicy::kShedOldest;

  bswp::Server server(so);
  runtime::ModelConfig hot_cfg{so.batching, so.queue, hot_weight};
  server.add("hot", hot, hot_cfg);
  std::vector<std::string> cold_ids;
  for (int i = 0; i < n_cold; ++i) {
    cold_ids.push_back("cold" + std::to_string(i));
    server.add(cold_ids.back(), cold);  // weight 1 (default)
  }

  // Warm-up: a full batch per worker per model so every executor is built
  // before timing; reset_stats() zeroes what the warm-up recorded.
  for (int round = 0; round < 2; ++round) {
    for (int w = 0; w < so.workers; ++w) {
      for (int b = 0; b < so.batching.max_batch; ++b) {
        server.submit("hot", images[0]);
        for (const std::string& id : cold_ids) server.submit(id, images[0]);
      }
    }
    server.drain();
  }
  server.reset_stats();

  Rng rng(321);
  const std::string hot_id = "hot";
  std::vector<std::future<QTensor>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  const Clock::time_point t0 = Clock::now();
  Clock::time_point next = t0;
  for (int i = 0; i < n; ++i) {
    const double gap_s = -std::log(1.0 - rng.uniform()) / offered_ips;
    next += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next);
    const double pick = rng.uniform();
    const std::string& id =
        pick < hot_frac
            ? hot_id
            : cold_ids[std::min<std::size_t>(
                  cold_ids.size() - 1,
                  static_cast<std::size_t>((pick - hot_frac) / (1.0 - hot_frac) *
                                           static_cast<double>(cold_ids.size())))];
    futures.push_back(server.submit(id, images[static_cast<std::size_t>(i) % images.size()]));
  }
  // Steady-state snapshot at the end of arrivals: the flush-everything
  // drain below would otherwise dominate the tail percentiles. Wall time is
  // stamped at the same instant so both describe the arrival window.
  LoadResult r;
  r.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.stats = server.stats();
  server.drain();
  for (std::future<QTensor>& f : futures) {
    try {
      f.get();
    } catch (const runtime::ServerRejected&) {
    }
  }
  return r;
}

void print_skewed_row(const char* policy, const LoadResult& r) {
  const auto& models = r.stats.models;
  const runtime::ModelStats& hot = models[0];
  std::uint64_t cold_done = 0, cold_shed = 0;
  double cold_p99 = 0.0;
  for (std::size_t i = 1; i < models.size(); ++i) {
    cold_done += models[i].admission.completed;
    cold_shed += models[i].admission.shed;
    cold_p99 = std::max(cold_p99, models[i].latency.p99_us);
  }
  std::printf("%-12s %8llu %8llu %5.2f %9.0f %9.0f | %9llu %9llu %11.0f\n", policy,
              static_cast<unsigned long long>(hot.admission.completed),
              static_cast<unsigned long long>(hot.admission.shed), hot.dispatch_share,
              hot.latency.p50_us, hot.latency.p99_us,
              static_cast<unsigned long long>(cold_done),
              static_cast<unsigned long long>(cold_shed), cold_p99);
}

struct SloResult {
  double attainment = 0.0;    // met-SLO completions / offered requests
  double met_p99_us = 0.0;    // client-observed p99 of the met requests
  std::uint64_t shed = 0;     // purged + refused + layer-boundary sheds
  std::uint64_t completed = 0;
};

/// Section 4: overload SLO sweep under one shedding mode. Open-loop Poisson
/// arrivals past capacity, every request carrying the same deadline. With
/// queue-only shedding (execution_aware_deadlines=false) a request is purged
/// only once its deadline has already passed in the queue — one that expires
/// a hair after dispatch occupies the worker to completion and finishes
/// late, wasting capacity that feasible requests behind it needed. The
/// execution-aware mode refuses to dispatch work whose remaining slack is
/// below the compiled plan's execution estimate and sheds in-flight batches
/// at the next layer boundary, so worker time concentrates on requests that
/// can still meet their deadline: attainment rises and the met-request tail
/// shortens. Latencies are measured client-side (submit to future-ready,
/// consumed in submit order) because ServerStats percentiles cover all
/// completions, late ones included.
SloResult run_slo_overload(bswp::Session& model, bool exec_aware, double offered_ips,
                           microseconds slo, int n, std::span<const Tensor> images) {
  runtime::ServerOptions so;
  so.workers = 1;
  so.execution_aware_deadlines = exec_aware;
  so.batching.max_batch = 4;
  so.batching.max_delay = microseconds{200};
  so.queue.capacity = 1024;
  so.queue.policy = runtime::QueuePolicy::kBlock;
  runtime::InferenceServer server(so);
  server.register_model("m", model.network(),
                        runtime::ModelConfig{so.batching, so.queue, 1});

  for (int i = 0; i < 2 * so.batching.max_batch; ++i) {
    server.submit("m", images[0]);
  }
  server.drain();  // executor warm
  server.reset_stats();

  // The consumer walks futures in submit order concurrently with arrivals,
  // stamping each completion as its get() returns — within consumer lag of
  // the true completion instant (requests finish near-FIFO here, so the lag
  // is the time to pop already-ready futures).
  struct Timed {
    std::future<QTensor> fut;
    Clock::time_point submitted;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Timed> inbox;
  bool arrivals_done = false;
  SloResult r;
  std::vector<double> met_us;
  std::thread consumer([&] {
    for (;;) {
      Timed item;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inbox.empty() || arrivals_done; });
        if (inbox.empty()) return;
        item = std::move(inbox.front());
        inbox.pop_front();
      }
      try {
        item.fut.get();
        ++r.completed;
        const double e2e_us =
            std::chrono::duration<double, std::micro>(Clock::now() - item.submitted).count();
        if (e2e_us <= static_cast<double>(slo.count())) met_us.push_back(e2e_us);
      } catch (const runtime::ServerRejected&) {
        ++r.shed;
      }
    }
  });

  Rng rng(99);
  Clock::time_point next = Clock::now();
  for (int i = 0; i < n; ++i) {
    const double gap_s = -std::log(1.0 - rng.uniform()) / offered_ips;
    next += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next);
    runtime::SubmitOptions opt;
    opt.deadline = slo;
    const Clock::time_point t = Clock::now();
    std::future<QTensor> fut =
        server.submit("m", images[static_cast<std::size_t>(i) % images.size()], opt);
    {
      std::lock_guard<std::mutex> lock(mu);
      inbox.push_back(Timed{std::move(fut), t});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    arrivals_done = true;
  }
  cv.notify_one();
  consumer.join();
  server.drain();

  r.attainment = static_cast<double>(met_us.size()) / static_cast<double>(n);
  if (!met_us.empty()) {
    std::sort(met_us.begin(), met_us.end());
    const std::size_t rank =
        std::min(met_us.size() - 1,
                 static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(met_us.size()))));
    r.met_p99_us = met_us[rank];
  }
  return r;
}

struct AutoscaleResult {
  runtime::ServerStats settled;
  double burst_p99_us = 0.0;
};

/// Section 3: load step against an autoscaling pool. Returns once the pool
/// has shrunk back to min_workers (or a timeout passes).
AutoscaleResult run_autoscaler_step(bswp::Session& hot, double capacity_1w,
                                    std::span<const Tensor> images) {
  runtime::ServerOptions so;
  so.workers = 1;
  so.batching.max_batch = 8;
  so.batching.max_delay = microseconds{1000};
  so.queue.capacity = 1024;
  so.queue.policy = runtime::QueuePolicy::kBlock;
  so.autoscaler.enabled = true;
  so.autoscaler.min_workers = 1;
  so.autoscaler.max_workers = 4;
  so.autoscaler.interval = std::chrono::microseconds{2000};
  so.autoscaler.up_queue_per_worker = 4.0;
  so.autoscaler.up_consecutive = 2;
  so.autoscaler.down_consecutive = 4;
  so.autoscaler.cooldown = std::chrono::microseconds{10000};

  bswp::Server server(so);
  server.add("hot", hot);
  server.submit("hot", images[0]).get();  // build the first executor
  server.reset_stats();

  // Step: a Poisson burst at ~2.5x one worker's capacity.
  const double offered = 2.5 * capacity_1w;
  const int n = smoke_scaled(300, 24);
  Rng rng(55);
  std::vector<std::future<QTensor>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  Clock::time_point next = Clock::now();
  for (int i = 0; i < n; ++i) {
    const double gap_s = -std::log(1.0 - rng.uniform()) / offered;
    next += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap_s));
    std::this_thread::sleep_until(next);
    futures.push_back(server.submit("hot", images[static_cast<std::size_t>(i) % images.size()]));
  }
  server.drain();
  for (std::future<QTensor>& f : futures) f.get();
  const runtime::ServerStats under_load = server.stats();

  // Idle: wait (bounded) for the relief streak to walk the pool back down.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (server.worker_count() > so.autoscaler.min_workers && Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const runtime::ServerStats settled = server.stats();
  std::printf("autoscaler: min=%d max=%d  peak=%d  ups=%llu downs=%llu  settled=%d  "
              "burst p99=%.0f us\n",
              so.autoscaler.min_workers, so.autoscaler.max_workers, settled.peak_workers,
              static_cast<unsigned long long>(settled.scale_up_events),
              static_cast<unsigned long long>(settled.scale_down_events),
              settled.current_workers, under_load.latency.p99_us);
  return AutoscaleResult{settled, under_load.latency.p99_us};
}

int run_bench() {
  // Two untrained networks (BN stats seeded): a pooled bit-serial ResNet-s
  // and a baseline-kernel TinyConv — server throughput depends only on
  // geometry, so training would be wasted bench time.
  BenchDataset d = cifar_like();
  d.model_opts.width = 0.5f;
  quant::CalibrateOptions qo;
  qo.num_samples = smoke_scaled(32, 8);

  nn::Graph rg = models::build_resnet_s(d.model_opts);
  Rng rng(7);
  rg.init_weights(rng);
  pool::CodecOptions co;
  co.pool_size = 64;
  co.kmeans_iters = smoke_scaled(5, 2);
  co.max_cluster_vectors = smoke_scaled(4000, 1000);
  Session resnet = Deployment::from(rg)
                       .with_pool(co)
                       .seed_batchnorm(16)
                       .calibrate(*d.train, qo)
                       .compile();

  nn::Graph tg = models::build_tinyconv(d.model_opts);
  Rng rng2(8);
  tg.init_weights(rng2);
  Session tiny =
      Deployment::from(tg).seed_batchnorm(16).calibrate(*d.train, qo).compile();

  std::vector<Tensor> images;
  for (int i = 0; i < 16; ++i) {
    Tensor x({1, 3, d.model_opts.image_size, d.model_opts.image_size});
    d.train->sample(i % d.train->size(), x.data());
    images.push_back(std::move(x));
  }

  // Calibrate offered load to this host: single-executor ResNet-s latency
  // bounds one worker's capacity (TinyConv is cheaper, so the blend runs a
  // little faster — the sweep factors stay meaningful either way).
  runtime::Executor exec(resnet.network());
  exec.run_view(images[0]);
  const Clock::time_point t0 = Clock::now();
  const int kCal = smoke_scaled(24, 6);
  for (int i = 0; i < kCal; ++i) exec.run_view(images[static_cast<std::size_t>(i) % images.size()]);
  const double img_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count() / kCal;
  const double capacity_1w = 1e6 / img_us;

  std::printf("bench_server: ResNet-s (pooled) + TinyConv (baseline), "
              "ResNet-s %.0f us/img => ~%.0f img/s per worker\n",
              img_us, capacity_1w);
  std::printf("%7s %10s %8s %6s %6s %11s %6s %8s %8s\n", "workers", "offered/s", "ddl us",
              "done", "shed", "achieved/s", "batch", "p50 us", "p99 us");

  const int n = smoke_scaled(240, 24);

  // Offered load x batching deadline at a fixed worker count.
  {
    const int workers = 2;
    const double cap = capacity_1w * workers;
    for (double load : smoke_mode() ? std::vector<double>{0.8}
                                    : std::vector<double>{0.5, 0.9, 1.5}) {
      for (microseconds ddl :
           smoke_mode() ? std::vector<microseconds>{microseconds{1000}}
                        : std::vector<microseconds>{microseconds{0}, microseconds{1000},
                                                    microseconds{5000}}) {
        const double offered = load * cap;
        print_row(workers, offered, ddl,
                  run_open_loop(resnet, tiny, workers, ddl, offered, n, images));
      }
    }
  }

  // Worker scaling at fixed relative load and deadline. The per-worker-count
  // rows feed BENCH_server.json so bench_compare.sh can diff runs.
  JsonWriter jw;
  jw.add("smoke_mode", smoke_mode());
  jw.add("capacity_1w_per_s", capacity_1w);
  for (int workers : smoke_mode() ? std::vector<int>{2} : std::vector<int>{1, 2, 4}) {
    const double offered = 0.9 * capacity_1w * workers;
    const LoadResult r =
        run_open_loop(resnet, tiny, workers, microseconds{1000}, offered, n, images);
    print_row(workers, offered, microseconds{1000}, r);
    const std::string prefix = "w" + std::to_string(workers) + "_";
    jw.add(prefix + "achieved_per_s",
           r.wall_seconds > 0.0
               ? static_cast<double>(r.stats.admission.completed) / r.wall_seconds
               : 0.0);
    jw.add(prefix + "p50_us", r.stats.latency.p50_us);
    jw.add(prefix + "p99_us", r.stats.latency.p99_us);
    jw.add(prefix + "mean_batch", r.stats.mean_batch_size);
  }

  // --- Section 2: skewed load, scheduling-policy sweep ----------------------
  // One hot registration (50% of requests, weight 8) + three cold
  // registrations (weight 1) of the same ResNet-s, offered at 1.15x the
  // pool's measured saturated throughput so every comparison runs with a
  // genuine overload backlog (identical per-batch cost across models
  // isolates scheduling). Single-executor img/s does not double with a
  // second worker (shared memory bandwidth), so capacity is probed with a
  // short closed-loop saturated run on a real 2-worker server.
  double cap_2w;
  {
    runtime::ServerOptions co2;
    co2.workers = 2;
    co2.batching.max_batch = 8;
    co2.batching.max_delay = microseconds{0};
    co2.queue.capacity = 1024;
    bswp::Server cserver(co2);
    cserver.add("m", resnet);
    for (int i = 0; i < 2 * co2.batching.max_batch; ++i) cserver.submit("m", images[0]);
    cserver.drain();  // both workers warm
    const int kSat = smoke_scaled(240, 24);
    const Clock::time_point c0 = Clock::now();
    for (int i = 0; i < kSat; ++i) {
      cserver.submit("m", images[static_cast<std::size_t>(i) % images.size()]);
    }
    cserver.drain();
    cap_2w = kSat / std::chrono::duration<double>(Clock::now() - c0).count();
  }

  const double hot_frac = 0.5;
  const int n_cold = 3;
  const double skew_offered = 1.15 * cap_2w;
  const int n_skew = smoke_scaled(900, 32);

  std::printf("\nbench_server: skewed load — 1 hot (%.0f%% of traffic, weight 8) + "
              "%d cold (weight 1), all ResNet-s, 2 workers, measured capacity %.0f/s, "
              "offered %.0f/s (1.15x)\n",
              100.0 * hot_frac, n_cold, cap_2w, skew_offered);
  std::printf("%-12s %8s %8s %5s %9s %9s | %9s %9s %11s\n", "policy", "hot done", "hot shed",
              "share", "hot p50", "hot p99", "cold done", "cold shed", "cold p99max");
  const LoadResult rr =
      run_skewed(resnet, resnet, n_cold, runtime::SchedulePolicy::kRoundRobin,
                 /*hot_weight=*/8, skew_offered, hot_frac, n_skew, images);
  print_skewed_row("round-robin", rr);
  const LoadResult wd =
      run_skewed(resnet, resnet, n_cold, runtime::SchedulePolicy::kWeightedDeficit,
                 /*hot_weight=*/8, skew_offered, hot_frac, n_skew, images);
  print_skewed_row("weighted", wd);
  jw.add("capacity_2w_per_s", cap_2w);
  jw.add("skew_rr_hot_p99_us", rr.stats.models[0].latency.p99_us);
  jw.add("skew_wd_hot_p99_us", wd.stats.models[0].latency.p99_us);
  jw.add("skew_rr_hot_completed", rr.stats.models[0].admission.completed);
  jw.add("skew_wd_hot_completed", wd.stats.models[0].admission.completed);

  // --- Section 3: autoscaler load step --------------------------------------
  std::printf("\n");
  const AutoscaleResult as = run_autoscaler_step(resnet, capacity_1w, images);
  jw.add("autoscale_peak_workers", as.settled.peak_workers);
  jw.add("autoscale_scale_ups", as.settled.scale_up_events);
  jw.add("autoscale_scale_downs", as.settled.scale_down_events);
  jw.add("autoscale_burst_p99_us", as.burst_p99_us);

  // --- Section 4: overload SLO attainment -----------------------------------
  // 2x one worker's capacity, SLO at 3x the single-image execution time:
  // roughly half the offered load is doomed no matter what — the question is
  // whether the worker wastes time finishing it late (queue-only) or sheds
  // it and spends the reclaimed time meeting deadlines (execution-aware).
  {
    const double slo_offered = 2.0 * capacity_1w;
    const microseconds slo{static_cast<long long>(3.0 * img_us)};
    // Smoke keeps enough requests that the met-request percentile has a
    // real sample behind it (attainment ~10-40% of n).
    const int n_slo = smoke_scaled(400, 96);
    std::printf("\nbench_server: overload SLO attainment (1 worker, offered %.0f/s = 2.0x "
                "capacity, SLO %lld us)\n",
                slo_offered, static_cast<long long>(slo.count()));
    std::printf("%-16s %10s %10s %8s %8s\n", "shedding", "attainment", "met p99", "done",
                "shed");
    const SloResult qo_r =
        run_slo_overload(resnet, /*exec_aware=*/false, slo_offered, slo, n_slo, images);
    std::printf("%-16s %9.1f%% %9.0f %8llu %8llu\n", "queue-only", 100.0 * qo_r.attainment,
                qo_r.met_p99_us, static_cast<unsigned long long>(qo_r.completed),
                static_cast<unsigned long long>(qo_r.shed));
    const SloResult ea_r =
        run_slo_overload(resnet, /*exec_aware=*/true, slo_offered, slo, n_slo, images);
    std::printf("%-16s %9.1f%% %9.0f %8llu %8llu\n", "execution-aware", 100.0 * ea_r.attainment,
                ea_r.met_p99_us, static_cast<unsigned long long>(ea_r.completed),
                static_cast<unsigned long long>(ea_r.shed));
    jw.add("slo_queueonly_attainment", qo_r.attainment);
    jw.add("slo_execaware_attainment", ea_r.attainment);
    jw.add("slo_queueonly_met_p99_us", qo_r.met_p99_us);
    jw.add("slo_execaware_met_p99_us", ea_r.met_p99_us);
  }
  jw.write("BENCH_server.json");
  return 0;
}

}  // namespace
}  // namespace bswp::bench

int main() { return bswp::bench::run_bench(); }
