// cluster-open: independent users sending to a bswp::Cluster — an open loop
// with Poisson arrivals, drawn from the seed before the run, at two fixed
// absolute rates that alternate in segments (nominal, peak, nominal, ...).
//
// Two shards of one worker each, the result cache on, bounded shed-oldest
// queues, a 50/50 mix of the paper's two 8-bit baseline nets (int8 ResNet-s
// on the SIMD lane, int8 TinyConv). A fifth of the requests repeat a small
// hot image set; the rest come from a pool far larger than the cache.
//
// Int8 conv, the residual add, server batching and queueing, and front-door
// routing and caching do all the work here; the bit-serial kernels do none,
// so a bit-serial change should move nothing on this workload.
//
// Rates and the latency limit are constants: they must never follow a
// capacity probe of the program, or a faster program would be sent more load
// and its gain would be hidden.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "core/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bswp::QTensor;
using bswp::Tensor;

constexpr int kSetupReps = 9;
constexpr double kNominalRate = 500.0;  // requests/s
constexpr double kPeakRate = 1000.0;    // requests/s, below capacity
constexpr double kLimitUs = 20000.0;    // peak-phase attainment limit
constexpr double kSegmentSeconds = 2.0;
constexpr double kHotShare = 0.2;
constexpr int kHotImages = 8;     // shared by both models
constexpr int kColdImages = 512;  // shared by both models
constexpr std::size_t kCacheEntries = 64;
constexpr int kShards = 2;
constexpr std::size_t kWindow = 500;       // nominal requests per p50 window
constexpr std::size_t kTailWindow = 1000;  // nominal requests per p99 window
const char* const kModels[2] = {"int8_resnet", "tinyconv"};

struct Arrival {
  double due_s;  // offset from the start of the schedule
  int model;
  int image;
  bool peak;
};

/// Poisson arrivals, segment by segment, all drawn before the run.
std::vector<Arrival> schedule(std::uint64_t seed, double seconds) {
  bswp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Arrival> out;
  double t = 0.0;
  for (int seg = 0; seg * kSegmentSeconds < seconds; ++seg) {
    const bool peak = seg % 2 == 1;
    const double rate = peak ? kPeakRate : kNominalRate;
    const double seg_end = std::min(seconds, (seg + 1) * kSegmentSeconds);
    t = std::max(t, seg * kSegmentSeconds);
    while (true) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= seg_end) break;
      Arrival a{t, static_cast<int>(rng.uniform_int(2)), 0, peak};
      a.image = rng.uniform() < kHotShare
                    ? static_cast<int>(rng.uniform_int(kHotImages))
                    : kHotImages + static_cast<int>(rng.uniform_int(kColdImages));
      out.push_back(a);
    }
  }
  return out;
}

bswp::runtime::FrontDoorOptions cluster_options() {
  bswp::runtime::FrontDoorOptions fo;
  fo.shards = kShards;
  fo.server.workers = 1;
  fo.server.queue.capacity = 64;
  fo.server.queue.policy = bswp::runtime::QueuePolicy::kShedOldest;
  fo.cache_capacity = kCacheEntries;
  return fo;
}

struct Nets {
  ServedNet owned[2];
  const ServedNet* net[2] = {nullptr, nullptr};
};

/// Start a cluster over both nets and make every shard build both models'
/// executors, with images the schedule never sends (so the cache stays cold
/// for them).
std::unique_ptr<bswp::Cluster> start_cluster(const Nets& n, const std::vector<Tensor>& warm) {
  auto c = std::make_unique<bswp::Cluster>(cluster_options());
  for (int m = 0; m < 2; ++m) c->add(kModels[m], *n.net[m]->served);
  std::vector<std::future<QTensor>> fs;
  for (const Tensor& x : warm) {
    for (int m = 0; m < 2; ++m) fs.push_back(c->submit(kModels[m], x));
  }
  for (auto& f : fs) f.get();
  c->reset_stats();
  return c;
}

/// One shard's completions, in the order the front door resolves them
/// (each shard's forwarder fulfills its futures in submit order).
struct Collector {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<std::size_t, std::future<QTensor>>> queue;
  bool done = false;
};

}  // namespace

void cluster_open(const Args& args, const Prebuilt* pre, Report& report, Ledger& ledger) {
  const std::vector<Tensor> images = make_images(args.seed, kHotImages + kColdImages);
  const std::vector<Tensor> warm = make_images(args.seed + 0x5eed, 16);
  const std::vector<Arrival> plan = schedule(args.seed, args.seconds);

  Nets n;
  std::unique_ptr<bswp::Cluster> cluster;
  if (pre == nullptr) {
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      cluster.reset();
      const Clock::time_point t0 = Clock::now();
      n.owned[0] = build_int8_resnet();
      n.owned[1] = build_tinyconv();
      for (int m = 0; m < 2; ++m) n.net[m] = &n.owned[m];
      cluster = start_cluster(n, warm);
      setup_s.push_back(seconds_since(t0) - n.owned[0].reference_s - n.owned[1].reference_s);
    }
    report.set("setup_s", median(setup_s), "s");
    double flash = 0, sram = 0;
    for (const ServedNet* s : n.net) {
      flash += static_cast<double>(s->served->footprint().flash_bytes);
      sram += static_cast<double>(s->served->footprint().sram_bytes);
    }
    report.set("flash_bytes", flash, "bytes");
    report.set("sram_bytes", sram, "bytes");
    ledger.exact.push_back({"flash_bytes", flash});
    ledger.exact.push_back({"sram_bytes", sram});
  } else {
    n.net[0] = &pre->int8_resnet;
    n.net[1] = &pre->tinyconv;
    cluster = start_cluster(n, warm);
  }

  // Reference logits for every (model, image) the schedule can send, and the
  // shard each one routes to while every shard is up.
  std::vector<QTensor> want[2];
  std::vector<int> shard[2];
  for (int m = 0; m < 2; ++m) {
    want[m] = reference_outputs(*n.net[m]->ref, images, 4);
    for (const Tensor& x : images) shard[m].push_back(cluster->shard_for(kModels[m], x));
  }

  const std::size_t total = plan.size();
  std::vector<double> lat_us(total, -1.0);  // from due time; -1 = failed
  std::vector<double> lag_us(total, 0.0);
  std::vector<char> matched(total, 0);
  Collector collectors[kShards];
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(plan[i].due_s));
  };
  const auto finish = [&](std::size_t i, std::future<QTensor>& f) {
    try {
      const QTensor out = f.get();
      lat_us[i] = us_between(due(i), Clock::now());
      matched[i] = same_output(out, want[plan[i].model][static_cast<std::size_t>(plan[i].image)]);
    } catch (const std::exception&) {
      lat_us[i] = -1.0;  // shed, refused or failed: a miss by definition
    }
  };

  std::vector<std::thread> threads;
  for (Collector& c : collectors) {
    threads.emplace_back([&c, &finish] {
      while (true) {
        std::unique_lock<std::mutex> lock(c.mu);
        c.cv.wait(lock, [&] { return c.done || !c.queue.empty(); });
        if (c.queue.empty()) return;
        auto [i, f] = std::move(c.queue.front());
        c.queue.pop_front();
        lock.unlock();
        finish(i, f);
      }
    });
  }

  try {
    for (std::size_t i = 0; i < total; ++i) {
      const Arrival& a = plan[i];
      std::this_thread::sleep_until(due(i));
      lag_us[i] = us_between(due(i), Clock::now());
      std::future<QTensor> f =
          cluster->submit(kModels[a.model], images[static_cast<std::size_t>(a.image)]);
      if (f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(i, f);  // a cache hit resolves before submit returns
        continue;
      }
      Collector& c = collectors[shard[a.model][static_cast<std::size_t>(a.image)]];
      {
        std::lock_guard<std::mutex> lock(c.mu);
        c.queue.emplace_back(i, std::move(f));
      }
      c.cv.notify_one();
    }
  } catch (const std::exception& ex) {  // stop sending; the collectors still drain
    ledger.fail_check(std::string("cluster-open: submit failed: ") + ex.what());
  }
  for (Collector& c : collectors) {
    {
      std::lock_guard<std::mutex> lock(c.mu);
      c.done = true;
    }
    c.cv.notify_one();
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_since(start);
  const bswp::runtime::ClusterStats cs = cluster->stats();

  std::vector<double> nominal_us, peak_us, lag[2];
  PhaseCounts phase[2];
  double completed = 0;
  for (std::size_t i = 0; i < total; ++i) {
    const int p = plan[i].peak ? 1 : 0;
    PhaseCounts& c = phase[p];
    ++c.sent;
    lag[p].push_back(lag_us[i]);
    if (p == 1) peak_us.push_back(matched[i] ? lat_us[i] : -1.0);  // failures miss the limit
    if (lat_us[i] < 0) {
      ++c.failed;
      continue;
    }
    ++completed;
    if (!matched[i]) {
      ++ledger.mismatches;
      continue;
    }
    ++c.succeeded;
    if (p == 0) nominal_us.push_back(lat_us[i]);
  }
  for (int p = 0; p < 2; ++p) {
    phase[p].lag_p50_us = median(lag[p]);
    phase[p].lag_max_us = percentile(lag[p], 1.0);
  }
  ledger.attempted += total;
  ledger.failed += static_cast<std::uint64_t>(phase[0].failed + phase[1].failed);

  report.set("p50_us", median(window_percentiles(nominal_us, kWindow, 0.50)), "us");
  report.set("throughput_per_s", completed / wall_s, "1/s");
  report.set("attainment", median(window_shares_within(peak_us, kWindow, kLimitUs)), "share");
  phase[0].p99_us = median(window_percentiles(nominal_us, kTailWindow, 0.99));
  phase[1].p99_us = median(window_percentiles(peak_us, kTailWindow, 0.99));
  report_phase(report, "phase_a", phase[0]);
  report_phase(report, "phase_b", phase[1]);

  // Shard servers, summed or averaged over the shards.
  double queue_wait = 0, exec_p50 = 0, dispatched = 0, batches = 0, shed = 0, rejected = 0;
  double hits = 0, lookups = 0, trips = 0, share_max = 0, fd_overhead = 0;
  for (const bswp::runtime::ShardStats& s : cs.shard_stats) {
    const bswp::runtime::ServerStats& v = s.server;
    queue_wait += (v.latency.p50_us - v.exec_latency.p50_us) / kShards;
    exec_p50 += v.exec_latency.p50_us / kShards;
    dispatched += static_cast<double>(v.dispatched);
    batches += static_cast<double>(v.batches);
    shed += static_cast<double>(v.admission.shed);
    rejected += static_cast<double>(v.admission.rejected);
    hits += static_cast<double>(v.affinity_hits);
    lookups += static_cast<double>(v.affinity_hits + v.affinity_misses);
    trips += static_cast<double>(s.breaker_trips);
    share_max = std::max(share_max, s.dispatch_share);
    fd_overhead += (s.latency.p50_us - v.latency.p50_us) / kShards;
  }
  report.set("server.queue_wait_p50_us", queue_wait, "us");
  report.set("server.exec_p50_us", exec_p50, "us");
  report.set("server.mean_batch", batches > 0 ? dispatched / batches : 0.0, "count");
  report.set("server.shed", shed, "count");
  report.set("server.rejected", rejected, "count");
  report.set("server.executor_affinity_hit_rate", lookups > 0 ? hits / lookups : 0.0, "share");
  report.set("frontdoor.cache_hit_rate", cs.cache.hit_rate, "share");
  report.set("frontdoor.failovers", static_cast<double>(cs.failovers), "count");
  report.set("frontdoor.breaker_trips", trips, "count");
  report.set("frontdoor.shard_share_max", share_max, "share");
  report.set("frontdoor.overhead_p50_us", fd_overhead, "us");
  log("cluster-open: %zu requests, %.0f completed, cache hit rate %.3f", total, completed,
      cs.cache.hit_rate);
}

}  // namespace perfbench
