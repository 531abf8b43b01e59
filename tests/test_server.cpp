// InferenceServer tests: bit-identity of served results vs Session::run for
// every model-zoo network under concurrent multi-client submission, batching
// triggers (full batch vs deadline partial batch), bounded-queue
// backpressure observable through admission counters (kReject/kShedOldest),
// kBlock completion, weighted-deficit scheduling (starvation-freedom of a
// weight-1 model under a saturating weight-8 storm), per-request priority
// classes, worker-affinity accounting, autoscaler grow/shrink hysteresis,
// drain/shutdown semantics with in-flight requests, and the shared
// LatencyRecorder. Everything here also runs under the TSan CI job — the
// suite is the concurrency contract of the serving subsystem.
#include "runtime/server/inference_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <exception>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/bswp.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "runtime/clock.h"
#include "runtime/executor.h"
#include "runtime/latency_recorder.h"
#include "runtime/pipeline.h"
#include "sim/mcu.h"

namespace bswp::runtime {
namespace {

using namespace std::chrono_literals;

// --- LatencyRecorder ---------------------------------------------------------

TEST(LatencyRecorder, NearestRankPercentiles) {
  LatencyRecorder rec;
  for (int v = 1; v <= 100; ++v) rec.record(static_cast<double>(v));
  const LatencySummary s = rec.summary();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.p50_us, 50.0);
  EXPECT_EQ(s.p95_us, 95.0);
  EXPECT_EQ(s.p99_us, 99.0);
  EXPECT_DOUBLE_EQ(s.mean_us, 50.5);
}

TEST(LatencyRecorder, SingleSampleAndEmpty) {
  EXPECT_EQ(LatencyRecorder::summarize({}).count, 0u);
  const LatencySummary s = LatencyRecorder::summarize({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.p50_us, 42.0);
  EXPECT_EQ(s.p99_us, 42.0);
  EXPECT_EQ(s.mean_us, 42.0);
}

TEST(LatencyRecorder, WindowKeepsMostRecentSamples) {
  LatencyRecorder rec(4);
  for (int v = 1; v <= 10; ++v) rec.record(static_cast<double>(v));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total(), 10u);
  const LatencySummary s = rec.summary();  // window holds {7, 8, 9, 10}
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean_us, 8.5);
  EXPECT_EQ(s.p99_us, 10.0);
}

TEST(LatencyRecorder, MergeEqualsPercentilesOfConcatenatedWindows) {
  // Two recorders with very different distributions: averaging their p99s
  // would land near 550, but the p99 of the union is what merge() must
  // produce — the whole point of cluster-level aggregation.
  LatencyRecorder a, b;
  for (int v = 1; v <= 99; ++v) a.record(static_cast<double>(v));        // 1..99
  for (int v = 1; v <= 11; ++v) b.record(static_cast<double>(v * 100));  // 100..1100
  std::vector<double> concat;
  for (double v : a.samples()) concat.push_back(v);
  for (double v : b.samples()) concat.push_back(v);
  const LatencySummary expect = LatencyRecorder::summarize(concat);

  LatencyRecorder merged;
  merged.merge(a);
  merged.merge(b);
  const LatencySummary got = merged.summary();
  EXPECT_EQ(got.count, 110u);
  EXPECT_EQ(got.p50_us, expect.p50_us);
  EXPECT_EQ(got.p95_us, expect.p95_us);
  EXPECT_EQ(got.p99_us, expect.p99_us);
  EXPECT_DOUBLE_EQ(got.mean_us, expect.mean_us);
  // And it is NOT the mean-of-p99s value.
  EXPECT_NE(got.p99_us, (a.summary().p99_us + b.summary().p99_us) / 2.0);
}

TEST(LatencyRecorder, MergeWalksCappedSourceInChronologicalOrder) {
  // The source ring has wrapped: retained samples are {7..10}, with the
  // ring cursor mid-array. merge() must append them oldest-first so a
  // capped destination keeps the most RECENT of the source's samples.
  LatencyRecorder src(4);
  for (int v = 1; v <= 10; ++v) src.record(static_cast<double>(v));
  LatencyRecorder dst(2);
  dst.merge(src);  // chronological append: 7, 8, then 9, 10 overwrite
  const LatencySummary s = dst.summary();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.mean_us, 9.5);  // {9, 10}

  // Merging into an unbounded recorder preserves every retained sample.
  LatencyRecorder all;
  all.merge(src);
  EXPECT_EQ(all.size(), 4u);
  EXPECT_DOUBLE_EQ(all.summary().mean_us, 8.5);  // {7, 8, 9, 10}
}

// --- environment -------------------------------------------------------------

/// Compile a model through the pass pipeline with a unit-range synthetic
/// calibration (no pool, no training): serving correctness depends only on
/// the integer kernels being deterministic, not on learned weights.
bswp::Session compile_session(const models::NamedModel& m, const models::ModelOptions& mo,
                              uint64_t seed) {
  nn::Graph g = m.build(mo);
  Rng rng(seed);
  g.init_weights(rng);
  quant::CalibrationResult cal;
  cal.input_abs_max = 1.0f;
  for (int i = 0; i < g.num_nodes(); ++i) {
    cal.node_range[i] = 1.0f;
    cal.node_abs_range[i] = 1.0f;
  }
  return bswp::Session(compile(g, nullptr, cal, CompileOptions{}));
}

Tensor random_image(Rng& rng, int channels, int hw) {
  Tensor x({1, channels, hw, hw});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

/// One small CIFAR-shaped model for the scheduler-behavior tests.
struct SmallModel {
  bswp::Session session;
  std::vector<Tensor> images;
  std::vector<QTensor> refs;

  explicit SmallModel(int n_images = 32)
      : session(compile_session(models::paper_models()[1] /* ResNet-s */, small_opts(), 11)) {
    Rng rng(99);
    for (int i = 0; i < n_images; ++i) {
      images.push_back(random_image(rng, 3, 16));
      refs.push_back(session.run(images.back()));
    }
  }

  static models::ModelOptions small_opts() {
    models::ModelOptions mo;
    mo.image_size = 16;
    mo.num_classes = 4;
    mo.width = 0.25f;
    return mo;
  }
};

SmallModel& small_model() {
  static SmallModel m;
  return m;
}

ServerOptions quick_options(int workers, int max_batch, std::chrono::microseconds delay,
                            std::size_t capacity = 256,
                            QueuePolicy policy = QueuePolicy::kBlock) {
  ServerOptions o;
  o.workers = workers;
  o.batching.max_batch = max_batch;
  o.batching.max_delay = delay;
  o.queue.capacity = capacity;
  o.queue.policy = policy;
  return o;
}

// --- bit-identity across the zoo under concurrent clients --------------------

TEST(InferenceServer, ZooBitIdenticalUnderConcurrentMultiClientSubmission) {
  // Every paper network served concurrently from one server; six client
  // threads interleave submissions across all models, and every future must
  // be bit-identical to single-shot Session::run on the same image.
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.num_classes = 4;
  mo.width = 0.25f;

  const std::vector<models::NamedModel> zoo = models::paper_models();
  std::vector<bswp::Session> sessions;
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    sessions.push_back(compile_session(zoo[i], mo, 100 + i));
  }

  InferenceServer server(quick_options(/*workers=*/4, /*max_batch=*/6, 300us));
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    server.register_model(zoo[i].name, sessions[i].network());
  }

  // Pre-generate every request's image and reference logits on the main
  // thread; clients only submit and collect.
  constexpr int kClients = 6;
  constexpr int kPerModel = 2;  // requests per (client, model)
  struct Planned {
    std::string model;
    Tensor image;
    QTensor ref;
  };
  Rng rng(5);
  std::vector<std::vector<Planned>> plan(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
      for (int r = 0; r < kPerModel; ++r) {
        Planned p;
        p.model = zoo[mi].name;
        p.image = random_image(rng, 3, 16);
        p.ref = sessions[mi].run(p.image);
        plan[c].push_back(std::move(p));
      }
    }
  }

  std::vector<std::vector<std::future<QTensor>>> futures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (Planned& p : plan[c]) {
        futures[c].push_back(server.submit(p.model, p.image));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < plan[c].size(); ++i) {
      const QTensor got = futures[c][i].get();
      EXPECT_EQ(got.data, plan[c][i].ref.data)
          << "client " << c << " request " << i << " model " << plan[c][i].model;
      EXPECT_EQ(got.scale, plan[c][i].ref.scale);
    }
  }

  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admission.accepted, static_cast<std::uint64_t>(kClients * kPerModel * zoo.size()));
  EXPECT_EQ(s.admission.completed, s.admission.accepted);
  EXPECT_EQ(s.admission.failed, 0u);
  EXPECT_EQ(s.admission.rejected, 0u);
  EXPECT_EQ(s.admission.shed, 0u);
  EXPECT_EQ(s.queue_depth, 0u);
  ASSERT_EQ(s.models.size(), zoo.size());  // registration order
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    EXPECT_EQ(s.models[i].model, zoo[i].name);
    EXPECT_EQ(s.models[i].admission.completed,
              static_cast<std::uint64_t>(kClients * kPerModel));
  }
}

// --- batching triggers -------------------------------------------------------

TEST(InferenceServer, FullBatchDispatchesBeforeDeadline) {
  SmallModel& m = small_model();
  // The deadline is far away: only the max_batch trigger can dispatch, so 8
  // requests must form exactly two batches of 4.
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/4, 10s));
  server.register_model("m", m.session.network());

  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit("m", m.images[i]));
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(futs[i].wait_for(60s), std::future_status::ready) << "request " << i;
    EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
  server.drain();
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.batches, 2u);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 4.0);
  ASSERT_EQ(s.batch_size_hist.size(), 5u);
  EXPECT_EQ(s.batch_size_hist[4], 2u);
}

TEST(InferenceServer, DeadlineTriggersPartialBatch) {
  SmallModel& m = small_model();
  // max_batch 64 can never fill from 3 requests: only the queue-delay
  // deadline can dispatch them.
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/64, 2ms));
  server.register_model("m", m.session.network());

  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 3; ++i) futs.push_back(server.submit("m", m.images[i]));
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(futs[i].wait_for(60s), std::future_status::ready);
    EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
  server.drain();
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.completed, 3u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_LE(s.mean_batch_size, 3.0);  // nothing ever reached max_batch
}

// --- backpressure ------------------------------------------------------------

TEST(InferenceServer, RejectPolicyObservableViaAdmissionCounters) {
  SmallModel& m = small_model();
  // max_batch > capacity and a far-away deadline (nothing can dispatch the
  // queued requests before this test's assertions run, even on a heavily
  // loaded TSan runner): the first 3 requests sit in the queue, so the next
  // 3 must overflow. drain() flushes them at the end regardless.
  InferenceServer server(
      quick_options(/*workers=*/1, /*max_batch=*/16, 10s, /*capacity=*/3, QueuePolicy::kReject));
  server.register_model("m", m.session.network());

  std::vector<std::future<QTensor>> accepted;
  for (int i = 0; i < 3; ++i) accepted.push_back(server.submit("m", m.images[i]));
  std::vector<std::future<QTensor>> overflow;
  for (int i = 3; i < 6; ++i) overflow.push_back(server.submit("m", m.images[i]));

  {
    const ModelStats s = server.model_stats("m");
    EXPECT_EQ(s.admission.accepted, 3u);
    EXPECT_EQ(s.admission.rejected, 3u);
    EXPECT_EQ(s.queue_depth, 3u);
  }
  for (std::future<QTensor>& f : overflow) {
    try {
      f.get();
      FAIL() << "overflow request was not rejected";
    } catch (const ServerRejected& e) {
      EXPECT_EQ(e.reason(), ServerRejected::Reason::kQueueFull);
    }
  }
  server.drain();
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(accepted[i].get().data, m.refs[i].data);
  }
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.completed, 3u);
  EXPECT_EQ(s.admission.rejected, 3u);
  EXPECT_EQ(s.admission.shed, 0u);
}

TEST(InferenceServer, ShedOldestEvictsTheOldestQueuedRequests) {
  SmallModel& m = small_model();
  // Same far-away deadline as the kReject test: the queue must still hold
  // requests 0..2 when 3..5 arrive, whatever the CI load.
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/16, 10s, /*capacity=*/3,
                                       QueuePolicy::kShedOldest));
  server.register_model("m", m.session.network());

  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 6; ++i) futs.push_back(server.submit("m", m.images[i]));

  // Requests 0..2 were the oldest when 3..5 arrived into the full queue.
  for (int i = 0; i < 3; ++i) {
    try {
      futs[i].get();
      FAIL() << "oldest request " << i << " was not shed";
    } catch (const ServerRejected& e) {
      EXPECT_EQ(e.reason(), ServerRejected::Reason::kShed);
    }
  }
  server.drain();
  for (int i = 3; i < 6; ++i) {
    EXPECT_EQ(futs[i].get().data, m.refs[i].data) << "newest request " << i;
  }
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.accepted, 6u);  // all six were admitted...
  EXPECT_EQ(s.admission.shed, 3u);      // ...and the three oldest evicted
  EXPECT_EQ(s.admission.completed, 3u);
  EXPECT_EQ(s.admission.rejected, 0u);
}

TEST(InferenceServer, BlockPolicyCompletesEverythingUnderSustainedOverload) {
  SmallModel& m = small_model();
  // Tiny queue + instant dispatch: submitters routinely hit the full queue
  // and must block until the scheduler frees space. Nothing may be lost.
  InferenceServer server(
      quick_options(/*workers=*/2, /*max_batch=*/2, 0us, /*capacity=*/2, QueuePolicy::kBlock));
  server.register_model("m", m.session.network());

  constexpr int kClients = 4, kPerClient = 8;
  std::vector<std::vector<std::future<QTensor>>> futs(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futs[c].push_back(server.submit("m", m.images[(c * kPerClient + i) % m.images.size()]));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPerClient; ++i) {
      EXPECT_EQ(futs[c][i].get().data, m.refs[(c * kPerClient + i) % m.refs.size()].data);
    }
  }
  server.drain();
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.accepted, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_EQ(s.admission.completed, s.admission.accepted);
  EXPECT_EQ(s.admission.rejected, 0u);
  EXPECT_EQ(s.admission.shed, 0u);
}

// --- priority scheduling -----------------------------------------------------

TEST(InferenceServer, WeightedSchedulingNeverStarvesColdModelUnderHotSaturation) {
  SmallModel& m = small_model();
  // One worker, instant-dispatch batching: the weight-8 "hot" model is kept
  // saturated by a closed-loop client the whole test, and the weight-1
  // "cold" model must still complete its requests *while the storm runs* —
  // the weighted scheduler grants every model credits each cycle, so cold
  // is slowed, never starved.
  ServerOptions so = quick_options(/*workers=*/1, /*max_batch=*/4, 0us, /*capacity=*/16,
                                   QueuePolicy::kBlock);
  InferenceServer server(so);
  ModelConfig hot_cfg{so.batching, so.queue, /*weight=*/8};
  ModelConfig cold_cfg{so.batching, so.queue, /*weight=*/1};
  server.register_model("hot", m.session.network(), hot_cfg);
  server.register_model("cold", m.session.network(), cold_cfg);

  constexpr int kHot = 600;
  std::atomic<bool> storm_done{false};
  std::vector<std::future<QTensor>> hot_futs;
  hot_futs.reserve(kHot);
  std::thread hot_client([&] {
    for (int i = 0; i < kHot; ++i) {
      hot_futs.push_back(
          server.submit("hot", m.images[static_cast<std::size_t>(i) % m.images.size()]));
    }
    storm_done.store(true);
  });

  // Wait until the hot queue is genuinely saturated before the cold model
  // has to compete for dispatch slots.
  while (server.model_stats("hot").queue_depth < 8 && !storm_done.load()) {
    std::this_thread::yield();
  }

  std::vector<std::future<QTensor>> cold_futs;
  for (int i = 0; i < 8; ++i) cold_futs.push_back(server.submit("cold", m.images[i]));
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(cold_futs[i].wait_for(60s), std::future_status::ready)
        << "cold request " << i << " starved under hot load";
    EXPECT_EQ(cold_futs[i].get().data, m.refs[i].data);
  }
  // 8 cold requests need ~2 scheduling cycles; the 600-request storm runs
  // ~150 batches — cold must have finished long before the storm did.
  EXPECT_FALSE(storm_done.load())
      << "hot storm drained before cold completed; saturation was not exercised";

  hot_client.join();
  server.drain();
  const ServerStats s = server.stats();
  ASSERT_EQ(s.models.size(), 2u);
  const ModelStats& hot = s.models[0];
  const ModelStats& cold = s.models[1];
  EXPECT_EQ(hot.weight, 8);
  EXPECT_EQ(cold.weight, 1);
  EXPECT_EQ(hot.admission.completed, static_cast<std::uint64_t>(kHot));
  EXPECT_EQ(cold.admission.completed, 8u);
  // Dispatch accounting: every request dispatched exactly once, share sums
  // to 1 and follows the traffic (hot carried ~99% of it here).
  EXPECT_EQ(hot.dispatched, hot.admission.completed);
  EXPECT_EQ(cold.dispatched, cold.admission.completed);
  EXPECT_GT(hot.dispatch_share, cold.dispatch_share);
  EXPECT_DOUBLE_EQ(hot.dispatch_share + cold.dispatch_share, 1.0);
  EXPECT_EQ(hot.affinity_hits + hot.affinity_misses, hot.batches);
  EXPECT_EQ(cold.affinity_hits + cold.affinity_misses, cold.batches);
}

TEST(InferenceServer, RoundRobinPolicyStillServesAllModels) {
  SmallModel& m = small_model();
  // Equal weights: the weighted-deficit scheduler is fair round-robin.
  InferenceServer server(quick_options(/*workers=*/2, /*max_batch=*/4, 500us));
  server.register_model("a", m.session.network());
  server.register_model("b", m.session.network());

  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 12; ++i) {
    futs.push_back(server.submit(i % 2 == 0 ? "a" : "b", m.images[i]));
  }
  server.drain();
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admission.completed, 12u);
  EXPECT_EQ(s.models[0].admission.completed, 6u);
  EXPECT_EQ(s.models[1].admission.completed, 6u);
}

TEST(InferenceServer, HighClassDispatchesFirstAndShedsLast) {
  SmallModel& m = small_model();
  // capacity 2 + unreachable batching triggers: the queue state is fully
  // under this test's control until drain(). kShedOldest must evict normal
  // requests (oldest first) and touch a kHigh request only when nothing
  // else is queued.
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/16, 10s, /*capacity=*/2,
                                       QueuePolicy::kShedOldest));
  server.register_model("m", m.session.network());

  std::future<QTensor> h1 = server.submit("m", m.images[0], RequestClass::kHigh);
  std::future<QTensor> n1 = server.submit("m", m.images[1]);
  // Queue: {high: [h1], norm: [n1]} — full from here on.
  std::future<QTensor> n2 = server.submit("m", m.images[2]);  // sheds n1
  std::future<QTensor> h2 = server.submit("m", m.images[3], RequestClass::kHigh);  // sheds n2
  std::future<QTensor> n3 = server.submit("m", m.images[4]);  // norm empty: sheds h1

  for (std::future<QTensor>* f : {&n1, &n2, &h1}) {
    try {
      f->get();
      FAIL() << "expected shed";
    } catch (const ServerRejected& e) {
      EXPECT_EQ(e.reason(), ServerRejected::Reason::kShed);
    }
  }
  server.drain();
  EXPECT_EQ(h2.get().data, m.refs[3].data);
  EXPECT_EQ(n3.get().data, m.refs[4].data);
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.accepted, 5u);
  EXPECT_EQ(s.admission.shed, 3u);
  EXPECT_EQ(s.admission.completed, 2u);
}

// --- worker affinity ---------------------------------------------------------

TEST(InferenceServer, AffinityHitAccountingSingleWorker) {
  SmallModel& m = small_model();
  // One worker: the first batch must build the executor (miss); every later
  // batch lands on the now-warm worker (hit).
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/4, 10s));
  server.register_model("m", m.session.network());

  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<QTensor>> futs;
    for (int i = 0; i < 4; ++i) futs.push_back(server.submit("m", m.images[i]));
    server.drain();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.batches, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(s.affinity_misses, 1u);
  EXPECT_EQ(s.affinity_hits, static_cast<std::uint64_t>(kRounds - 1));
}

TEST(InferenceServer, AffinityCountersPartitionBatchesAcrossWorkers) {
  SmallModel& m = small_model();
  // Two workers, many rounds of two concurrent batches: each worker builds
  // the executor at most once, so misses are bounded by the worker count
  // and everything else must be a hit. (Which worker takes which batch is
  // timing-dependent; the partition invariant is not.)
  InferenceServer server(quick_options(/*workers=*/2, /*max_batch=*/2, 10s));
  server.register_model("m", m.session.network());

  constexpr int kRounds = 6;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::future<QTensor>> futs;
    for (int i = 0; i < 4; ++i) futs.push_back(server.submit("m", m.images[i]));
    server.drain();
    for (int i = 0; i < 4; ++i) EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.batches, static_cast<std::uint64_t>(2 * kRounds));
  EXPECT_GE(s.affinity_misses, 1u);
  EXPECT_LE(s.affinity_misses, 2u);  // at most one executor build per worker
  EXPECT_EQ(s.affinity_hits, s.batches - s.affinity_misses);
}

// --- autoscaler (virtual clock) ----------------------------------------------

/// Real-time-bounded poll for an effect of a virtual-clock advance. The
/// manual clock keeps every scheduler *decision* a function of virtual time
/// (the safety property under test); this helper only supplies liveness —
/// the scheduler's manual-clock wait re-polls its predicate every ~200 us of
/// real time, so effects land shortly after the advance that caused them.
template <typename Pred>
bool eventually(Pred pred, std::chrono::seconds timeout = 30s) {
  const auto until = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < until) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(InferenceServer, AutoscalerGrowsOnBacklogShrinksWhenIdleWithHysteresis) {
  SmallModel& m = small_model();
  ManualClock clock;
  // Backlog that cannot dispatch: a 64-wide batch never fills from 8
  // requests and the 10-minute window never elapses while virtual time only
  // moves when this test advances it — so every evaluation observes exactly
  // the queue we built, and the whole grow/shrink trajectory is a
  // deterministic function of the advances below. No sleeps, no load races.
  ServerOptions so = quick_options(/*workers=*/1, /*max_batch=*/64,
                                   std::chrono::microseconds(600'000'000),
                                   /*capacity=*/1024, QueuePolicy::kBlock);
  so.clock = &clock;
  so.autoscaler.enabled = true;
  so.autoscaler.min_workers = 1;
  so.autoscaler.max_workers = 3;
  so.autoscaler.interval = 1ms;
  so.autoscaler.up_queue_per_worker = 1.0;
  so.autoscaler.up_consecutive = 2;
  so.autoscaler.down_consecutive = 3;
  so.autoscaler.cooldown = 2ms;
  InferenceServer server(so);
  server.register_model("m", m.session.network());
  EXPECT_EQ(server.worker_count(), 1);

  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit("m", m.images[i]));

  // Each 1 ms advance crosses exactly one evaluation boundary; waiting on
  // the autoscale_evals counter confirms the scheduler has observed it
  // before the post-conditions are asserted.
  std::uint64_t evals = 0;
  const auto advance_one_eval = [&] {
    clock.advance(1ms);
    ++evals;
    ASSERT_TRUE(eventually([&] { return server.stats().autoscale_evals >= evals; }))
        << "scheduler never observed evaluation " << evals;
  };

  advance_one_eval();  // pressure streak 1/2
  EXPECT_EQ(server.worker_count(), 1);
  advance_one_eval();  // streak 2/2, cooldown satisfied: 1 -> 2
  EXPECT_EQ(server.worker_count(), 2);
  advance_one_eval();  // streak restarted by the scale event
  EXPECT_EQ(server.worker_count(), 2);
  advance_one_eval();  // streak 2/2 again, 2 ms since last event: 2 -> 3
  EXPECT_EQ(server.worker_count(), 3);
  advance_one_eval();  // pinned at max_workers: the streak clamps,
  advance_one_eval();  // further pressure produces no event
  EXPECT_EQ(server.worker_count(), 3);
  EXPECT_EQ(server.stats().scale_up_events, 2u);

  server.drain();  // flush dispatches the backlog; queues empty, pool idle
  for (std::size_t i = 0; i < futs.size(); ++i) {
    EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }

  advance_one_eval();  // relief streak 1/3
  advance_one_eval();  // 2/3
  EXPECT_EQ(server.worker_count(), 3);
  advance_one_eval();  // 3/3: 3 -> 2
  EXPECT_EQ(server.worker_count(), 2);
  advance_one_eval();
  advance_one_eval();
  advance_one_eval();  // 3/3 again, cooldown satisfied: 2 -> 1
  EXPECT_EQ(server.worker_count(), 1);

  const ServerStats s = server.stats();
  EXPECT_EQ(s.current_workers, 1);
  EXPECT_EQ(s.peak_workers, 3);
  EXPECT_EQ(s.scale_up_events, 2u);    // 1 -> 2 -> 3, never past max
  EXPECT_EQ(s.scale_down_events, 2u);  // 3 -> 2 -> 1, never past min

  // No oscillation: many more observed evaluations at min_workers with empty
  // queues must not produce another scale event (no wall-clock settling).
  for (int i = 0; i < 6; ++i) advance_one_eval();
  const ServerStats settled = server.stats();
  EXPECT_EQ(settled.scale_up_events, s.scale_up_events);
  EXPECT_EQ(settled.scale_down_events, s.scale_down_events);
  EXPECT_EQ(settled.current_workers, 1);
}

// --- execution-aware shedding ------------------------------------------------

TEST(InferenceServer, SheddingStormNeverYieldsPartialResultsAndKeepsBitIdentity) {
  SmallModel& m = small_model();
  // Real clock, real races: queue purges, in-flight layer-boundary sheds and
  // completions interleave freely (this file runs under the TSan CI job).
  // The contract: every future either carries logits bit-identical to the
  // single-threaded reference or fails with kDeadlineExpired; deadline-free
  // requests always complete; the admission ledger balances exactly.
  ServerOptions so = quick_options(/*workers=*/2, /*max_batch=*/4, /*delay=*/200us,
                                   /*capacity=*/4096, QueuePolicy::kBlock);
  InferenceServer server(so);
  server.register_model("m", m.session.network());

  struct Sub {
    std::future<QTensor> fut;
    std::size_t img;
    bool has_deadline;
  };
  std::vector<Sub> subs;
  subs.reserve(300);
  for (int i = 0; i < 300; ++i) {
    SubmitOptions opt;
    const bool with_deadline = (i % 3) != 0;
    // 1 us .. 700 us: far below the model's execution time, so deadlined
    // requests are refused at dispatch or shed at a layer boundary.
    if (with_deadline) opt.deadline = std::chrono::microseconds(1 + (i * 37) % 700);
    const std::size_t img = static_cast<std::size_t>(i) % m.images.size();
    subs.push_back({server.submit("m", m.images[img], opt), img, with_deadline});
  }
  server.drain();

  std::size_t completed = 0;
  std::size_t shed = 0;
  for (Sub& s : subs) {
    try {
      const QTensor out = s.fut.get();
      EXPECT_EQ(out.data, m.refs[s.img].data) << "completed result not bit-identical";
      ++completed;
    } catch (const ServerRejected& e) {
      EXPECT_TRUE(s.has_deadline) << "a deadline-free request was shed";
      EXPECT_EQ(e.reason(), ServerRejected::Reason::kDeadlineExpired);
      ++shed;
    }
  }
  EXPECT_EQ(completed + shed, subs.size());
  EXPECT_GE(completed, 100u);  // every deadline-free request at minimum
  const ModelStats ms = server.model_stats("m");
  EXPECT_EQ(ms.admission.accepted, subs.size());
  EXPECT_EQ(ms.admission.completed, completed);
  EXPECT_EQ(ms.admission.shed, shed);
  EXPECT_EQ(ms.deadline_expired, shed);
  EXPECT_EQ(ms.admission.failed, 0u);
}

TEST(InferenceServer, AutoscalerValidationAndFixedPoolDefaults) {
  SmallModel& m = small_model();
  const auto with_autoscaler = [](auto mutate) {
    ServerOptions so;
    so.autoscaler.enabled = true;
    mutate(so.autoscaler);
    return so;
  };
  EXPECT_THROW(InferenceServer(with_autoscaler([](AutoscalerOptions& a) { a.min_workers = 0; })),
               std::invalid_argument);
  EXPECT_THROW(InferenceServer(with_autoscaler([](AutoscalerOptions& a) {
                 a.min_workers = 3;
                 a.max_workers = 2;
               })),
               std::invalid_argument);
  EXPECT_THROW(InferenceServer(with_autoscaler(
                   [](AutoscalerOptions& a) { a.interval = std::chrono::microseconds{0}; })),
               std::invalid_argument);
  EXPECT_THROW(InferenceServer(with_autoscaler(
                   [](AutoscalerOptions& a) { a.up_queue_per_worker = 0.0; })),
               std::invalid_argument);

  // Weight is validated at registration.
  InferenceServer server(quick_options(/*workers=*/2, /*max_batch=*/4, 1ms));
  ModelConfig bad_weight;
  bad_weight.weight = 0;
  EXPECT_THROW(server.register_model("m", m.session.network(), bad_weight),
               std::invalid_argument);

  // Without the autoscaler the pool is fixed and the new stats fields are
  // inert: current == peak == workers, zero scale events.
  server.register_model("m", m.session.network());
  server.submit("m", m.images[0]).get();
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(server.worker_count(), 2);
  EXPECT_EQ(s.current_workers, 2);
  EXPECT_EQ(s.peak_workers, 2);
  EXPECT_EQ(s.scale_up_events, 0u);
  EXPECT_EQ(s.scale_down_events, 0u);
}

// --- drain / shutdown --------------------------------------------------------

TEST(InferenceServer, DrainFlushesDeadlinesAndMakesEveryFutureReady) {
  SmallModel& m = small_model();
  // Deadline far in the future: without drain()'s flush these would sit in
  // the queue for 10 s.
  InferenceServer server(quick_options(/*workers=*/2, /*max_batch=*/7, 10s));
  server.register_model("m", m.session.network());

  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 20; ++i) futs.push_back(server.submit("m", m.images[i]));
  const auto t0 = std::chrono::steady_clock::now();
  server.drain();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, 5s) << "drain waited for the batching deadline instead of flushing";
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready) << "future " << i;
    EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admission.completed, 20u);
  EXPECT_EQ(s.queue_depth, 0u);
  // End-to-end latency was recorded for every completed request.
  EXPECT_EQ(s.latency.count, 20u);
  EXPECT_GT(s.latency.p50_us, 0.0);
  EXPECT_LE(s.latency.p50_us, s.latency.p95_us);
  EXPECT_LE(s.latency.p95_us, s.latency.p99_us);
}

/// A completion that re-enters its server at the settle site: it reads
/// stats() (mu_ and stats_mu_ — a settle under either lock deadlocks here)
/// and submits a request of its own to the "sink" model. It sleeps first,
/// while it has queued nothing, so a drain() that did not wait for it would
/// return before it records its outcome.
struct ReentrantProbe {
  InferenceServer& server;
  const Tensor& sink_image;
  std::mutex mu;
  std::vector<std::string> outcomes;  // settle order: "ok", or the error text
  std::atomic<int> returned{0};
  std::atomic<int> nested_settled{0};

  InferenceServer::Completion completion() {
    return [this](QTensor logits, std::exception_ptr error) {
      std::this_thread::sleep_for(2ms);
      (void)server.stats();
      server.submit("sink", Tensor(sink_image), SubmitOptions{},
                    [this](QTensor, std::exception_ptr) { nested_settled.fetch_add(1); });
      std::string what = logits.data.empty() ? "empty" : "ok";
      if (error != nullptr) {
        try {
          std::rethrow_exception(error);
        } catch (const std::exception& e) {
          what = e.what();
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      outcomes.push_back(what);
      returned.fetch_add(1);
    };
  }
  std::string outcome(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return i < outcomes.size() ? outcomes[i] : "missing";
  }
};

TEST(InferenceServer, CompletionsMayReenterTheServerAtEverySettleSite) {
  SmallModel& m = small_model();
  // Virtual time stands still, so nothing dispatches on its own: a 2-wide
  // batch forms only when two requests queue, and the one-hour window never
  // closes unless drain() flushes it.
  ManualClock clock;
  ServerOptions so = quick_options(/*workers=*/1, /*max_batch=*/2,
                                   std::chrono::microseconds(3'600'000'000LL));
  so.clock = &clock;
  InferenceServer server(so);
  const auto config = [&](QueuePolicy policy, std::size_t capacity) {
    ModelConfig c;
    c.batching = so.batching;
    c.queue.policy = policy;
    c.queue.capacity = capacity;
    return c;
  };
  const CompiledNetwork& net = m.session.network();
  server.register_model("sink", net, config(QueuePolicy::kShedOldest, 64));
  server.register_model("reject", net, config(QueuePolicy::kReject, 1));
  server.register_model("shed", net, config(QueuePolicy::kShedOldest, 1));
  server.register_model("deadline", net, config(QueuePolicy::kShedOldest, 64));
  server.register_model("inflight", net, config(QueuePolicy::kShedOldest, 64));
  server.register_model("work", net, config(QueuePolicy::kShedOldest, 64));
  ReentrantProbe probe{server, m.images[0]};
  const auto contains = [](const std::string& text, const char* part) {
    return text.find(part) != std::string::npos;
  };

  // kReject: the refusal settles inside submit, on this thread.
  auto reject_head = server.submit("reject", m.images[1]);
  server.submit("reject", Tensor(m.images[2]), SubmitOptions{}, probe.completion());
  ASSERT_EQ(probe.returned.load(), 1);
  EXPECT_TRUE(contains(probe.outcome(0), "kReject")) << probe.outcome(0);

  // kShedOldest: the newcomer's submit settles the victim it displaced.
  server.submit("shed", Tensor(m.images[3]), SubmitOptions{}, probe.completion());
  auto shed_newcomer = server.submit("shed", m.images[4]);
  ASSERT_EQ(probe.returned.load(), 2);
  EXPECT_TRUE(contains(probe.outcome(1), "kShedOldest")) << probe.outcome(1);

  server.drain();
  EXPECT_EQ(reject_head.get().data, m.refs[1].data);
  EXPECT_EQ(shed_newcomer.get().data, m.refs[4].data);

  // Deadline purge: the scheduler settles it, with every queue empty and
  // the worker idle, so only the purge's own completion holds drain() back.
  SubmitOptions short_deadline;
  short_deadline.deadline = 1ms;
  server.submit("deadline", Tensor(m.images[5]), short_deadline, probe.completion());
  clock.advance(2ms);
  server.drain();
  ASSERT_EQ(probe.returned.load(), 3);
  EXPECT_TRUE(contains(probe.outcome(2), "deadline unmeetable")) << probe.outcome(2);

  // In-flight shed: the server's own per-image estimate, recomputed here.
  // A deadline 1.5 estimates out survives the dispatch-time purge (slack
  // above one estimate), but the two-image batch prices at two estimates,
  // so the worker sheds it at layer 0.
  Executor profiler(net, 1);
  double est_us = 0.0;
  for (const sim::CostCounter& c : profiler.profile_layers(Tensor(std::vector<int>{3, 16, 16}))) {
    est_us += sim::host_profile().seconds(c) * 1e6;
  }
  ASSERT_GT(est_us, 10.0);
  SubmitOptions tight;
  tight.deadline = std::chrono::microseconds(static_cast<std::int64_t>(est_us * 1.5));
  server.submit("inflight", Tensor(m.images[6]), tight, probe.completion());
  server.submit("inflight", Tensor(m.images[7]), tight, probe.completion());
  server.drain();
  ASSERT_EQ(probe.returned.load(), 5);
  EXPECT_TRUE(contains(probe.outcome(3), "in-flight")) << probe.outcome(3);
  EXPECT_TRUE(contains(probe.outcome(4), "in-flight")) << probe.outcome(4);

  // Worker success and worker failure, settled by the worker in one batch.
  Rng rng(3);
  server.submit("work", Tensor(m.images[8]), SubmitOptions{}, probe.completion());
  server.submit("work", random_image(rng, 3, 8), SubmitOptions{}, probe.completion());
  server.drain();
  ASSERT_EQ(probe.returned.load(), 7);
  EXPECT_EQ(probe.outcome(5), "ok");
  EXPECT_NE(probe.outcome(6), "ok");
  EXPECT_NE(probe.outcome(6), "empty");

  // Shutdown refusal: settled inside submit; the nested submit is refused
  // too, and both completions run.
  server.shutdown();
  server.submit("work", Tensor(m.images[9]), SubmitOptions{}, probe.completion());
  ASSERT_EQ(probe.returned.load(), 8);
  EXPECT_TRUE(contains(probe.outcome(7), "shutting down")) << probe.outcome(7);

  // Every nested submit settled once; the ledger balances.
  EXPECT_EQ(probe.nested_settled.load(), 8);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admission.accepted, s.admission.completed + s.admission.failed + s.admission.shed);
  EXPECT_EQ(server.model_stats("inflight").deadline_expired, 2u);
}

TEST(InferenceServer, DestructorDrainsInFlightRequests) {
  SmallModel& m = small_model();
  std::vector<std::future<QTensor>> futs;
  {
    InferenceServer server(quick_options(/*workers=*/2, /*max_batch=*/5, 10s));
    server.register_model("m", m.session.network());
    for (int i = 0; i < 17; ++i) futs.push_back(server.submit("m", m.images[i]));
    // Destructor runs with queued and in-flight requests outstanding.
  }
  for (std::size_t i = 0; i < futs.size(); ++i) {
    ASSERT_EQ(futs[i].wait_for(0s), std::future_status::ready)
        << "future " << i << " not fulfilled by shutdown";
    EXPECT_EQ(futs[i].get().data, m.refs[i].data);
  }
}

TEST(InferenceServer, ShutdownRejectsNewWorkAndIsIdempotent) {
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/2, 1ms));
  server.register_model("m", m.session.network());
  server.submit("m", m.images[0]).get();
  server.shutdown();
  server.shutdown();  // idempotent

  std::future<QTensor> f = server.submit("m", m.images[1]);
  try {
    f.get();
    FAIL() << "submit after shutdown was not rejected";
  } catch (const ServerRejected& e) {
    EXPECT_EQ(e.reason(), ServerRejected::Reason::kShutdown);
  }
  EXPECT_THROW(server.register_model("late", m.session.network()), std::invalid_argument);
  EXPECT_EQ(server.model_stats("m").admission.rejected, 1u);
}

// --- error isolation & misuse ------------------------------------------------

TEST(InferenceServer, BadRequestFailsAloneWithoutPoisoningItsBatch) {
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/8, 50ms));
  server.register_model("m", m.session.network());

  std::future<QTensor> good0 = server.submit("m", m.images[0]);
  std::future<QTensor> bad = server.submit("m", Tensor({5, 16, 16}, 0.1f));  // wrong channels
  std::future<QTensor> good1 = server.submit("m", m.images[1]);
  server.drain();

  EXPECT_EQ(good0.get().data, m.refs[0].data);
  EXPECT_THROW(bad.get(), std::invalid_argument);
  EXPECT_EQ(good1.get().data, m.refs[1].data);
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.completed, 2u);
  EXPECT_EQ(s.admission.failed, 1u);
  // The server keeps serving after a failed request.
  std::future<QTensor> again = server.submit("m", m.images[2]);
  EXPECT_EQ(again.get().data, m.refs[2].data);
}

TEST(InferenceServer, UnknownModelAndDuplicateRegistrationThrow) {
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/2, 1ms));
  server.register_model("m", m.session.network());
  EXPECT_THROW(server.submit("nope", m.images[0]), std::invalid_argument);
  EXPECT_THROW(server.register_model("m", m.session.network()), std::invalid_argument);
  EXPECT_THROW(server.model_stats("nope"), std::invalid_argument);
  EXPECT_THROW(InferenceServer(quick_options(0, 2, 1ms)), std::invalid_argument);
  EXPECT_THROW(InferenceServer(quick_options(1, 0, 1ms)), std::invalid_argument);
}

// --- batched dispatch --------------------------------------------------------

TEST(InferenceServer, BatchedDispatchBitIdenticalToSessionRun) {
  // Each formed batch runs as one batched executor call and must produce
  // byte-identical logits to single-image Session::run.
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/4, 50ms));
  server.register_model("m", m.session.network());
  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(server.submit("m", m.images[i]));
  server.drain();
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(futs[static_cast<std::size_t>(i)].get().data, m.refs[static_cast<std::size_t>(i)].data)
        << "image " << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admission.completed, 8u);
  EXPECT_EQ(s.admission.failed, 0u);
  EXPECT_GT(s.mean_batch_size, 1.0);  // the batched call actually ran
}

TEST(InferenceServer, BadShapeRejectedBeforeBatchingUnderBatchedDispatch) {
  // Pre-dispatch validation: a wrong-shape request must fail its own future
  // (same error as the engine's) while its batch neighbours ride the single
  // batched executor call.
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/8, 50ms));
  server.register_model("m", m.session.network());

  std::future<QTensor> good0 = server.submit("m", m.images[0]);
  std::future<QTensor> bad_shape = server.submit("m", Tensor({5, 16, 16}, 0.1f));
  std::future<QTensor> bad_rank = server.submit("m", Tensor({2, 3, 16, 16}, 0.1f));
  std::future<QTensor> good1 = server.submit("m", m.images[1]);
  server.drain();

  EXPECT_EQ(good0.get().data, m.refs[0].data);
  EXPECT_THROW(bad_shape.get(), std::invalid_argument);
  EXPECT_THROW(bad_rank.get(), std::invalid_argument);
  EXPECT_EQ(good1.get().data, m.refs[1].data);
  const ModelStats s = server.model_stats("m");
  EXPECT_EQ(s.admission.completed, 2u);
  EXPECT_EQ(s.admission.failed, 2u);
  // Only the two valid requests executed, so only they record exec samples.
  EXPECT_EQ(s.exec_latency.count, 2u);
}

TEST(InferenceServer, AdmissionLedgerBalancesForAnyReadAfterTheFutureResolves) {
  // A request's admission counter moves before its future resolves, so a
  // stats read made right after get() returns already balances — no drain()
  // needed. A worker that fulfilled first and counted after would leave most
  // of these reads one request short.
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/1, /*max_batch=*/1, 0us));
  server.register_model("m", m.session.network());
  int unbalanced = 0;
  constexpr int kRounds = 2000;
  for (int i = 0; i < kRounds; ++i) {
    server.submit("m", m.images[static_cast<std::size_t>(i) % m.images.size()]).get();
    const AdmissionCounters a = server.model_stats("m").admission;
    if (a.accepted != a.completed + a.failed + a.shed) ++unbalanced;
  }
  EXPECT_EQ(unbalanced, 0) << "of " << kRounds << " reads";
}

TEST(InferenceServer, ExecLatencySeparatesExecutorTimeFromQueueing) {
  SmallModel& m = small_model();
  InferenceServer server(quick_options(/*workers=*/2, /*max_batch=*/4, 300us));
  server.register_model("m", m.session.network());
  std::vector<std::future<QTensor>> futs;
  for (int i = 0; i < 16; ++i) futs.push_back(server.submit("m", m.images[i % 8]));
  server.drain();
  for (auto& f : futs) f.get();

  const ServerStats s = server.stats();
  EXPECT_EQ(s.exec_latency.count, 16u);
  EXPECT_GT(s.exec_latency.mean_us, 0.0);
  // Executor time excludes queueing and batching delay, so it can never
  // exceed the end-to-end mean over the same sample set.
  EXPECT_LE(s.exec_latency.mean_us, s.latency.mean_us);
  ASSERT_EQ(s.models.size(), 1u);
  EXPECT_EQ(s.models[0].exec_latency.count, 16u);
  EXPECT_LE(s.models[0].exec_latency.mean_us, s.models[0].latency.mean_us);
  EXPECT_EQ(server.model_stats("m").exec_latency.count, 16u);

  server.reset_stats();
  const ServerStats z = server.stats();
  EXPECT_EQ(z.exec_latency.count, 0u);
  EXPECT_EQ(z.models[0].exec_latency.count, 0u);
}

// --- facade ------------------------------------------------------------------

TEST(ServerFacade, RegistersSessionsByNameAndServes) {
  SmallModel& m = small_model();
  // TinyConv is a Quickdraw model in the paper, but the builder takes its
  // channel count from the options; reuse the CIFAR-shaped options so both
  // registered models share one input shape.
  bswp::Session tiny = compile_session(models::paper_models()[0], SmallModel::small_opts(), 21);

  ServerOptions so = quick_options(/*workers=*/2, /*max_batch=*/4, 500us);
  bswp::Server server(so);
  server.add("resnet", m.session).add("tiny", tiny);
  EXPECT_EQ(server.worker_count(), 2);

  std::future<QTensor> fr = server.submit("resnet", m.images[0]);
  std::future<QTensor> ft = server.submit("tiny", m.images[0]);
  EXPECT_EQ(fr.get().data, m.refs[0].data);
  EXPECT_EQ(ft.get().data, tiny.run(m.images[0]).data);
  server.drain();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.admission.completed, 2u);
  ASSERT_EQ(s.models.size(), 2u);
  EXPECT_EQ(server.model_stats("tiny").admission.completed, 1u);

  // reset_stats zeroes counters and latency windows; serving continues.
  server.reset_stats();
  const ServerStats zeroed = server.stats();
  EXPECT_EQ(zeroed.admission.accepted, 0u);
  EXPECT_EQ(zeroed.admission.completed, 0u);
  EXPECT_EQ(zeroed.batches, 0u);
  EXPECT_EQ(zeroed.latency.count, 0u);
  EXPECT_EQ(server.submit("resnet", m.images[1]).get().data, m.refs[1].data);
  server.drain();
  EXPECT_EQ(server.stats().admission.completed, 1u);
  server.shutdown();
}

TEST(ServerFacade, PriorityClassAndWeightedConfigRoundTrip) {
  SmallModel& m = small_model();
  ServerOptions so = quick_options(/*workers=*/2, /*max_batch=*/4, 500us);
  bswp::Server server(so);
  ModelConfig cfg{so.batching, so.queue, /*weight=*/4};
  server.add("resnet", m.session, cfg);

  std::future<QTensor> f = server.submit("resnet", m.images[0], RequestClass::kHigh);
  EXPECT_EQ(f.get().data, m.refs[0].data);
  server.drain();
  const ModelStats s = server.model_stats("resnet");
  EXPECT_EQ(s.weight, 4);
  EXPECT_EQ(s.admission.completed, 1u);
  EXPECT_DOUBLE_EQ(s.dispatch_share, 1.0);  // only model registered
  EXPECT_EQ(s.affinity_hits + s.affinity_misses, s.batches);
  EXPECT_EQ(server.stats().current_workers, server.worker_count());
}

}  // namespace
}  // namespace bswp::runtime
