// Arena execution tests: MemoryPlanner placement safety, Executor reuse
// bit-identity, the zero-heap-allocation steady-state guarantee, and the
// persistent serving pool (stress vs sequential reference, early error
// exit, latency stats).
#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "api/bswp.h"
// Replaces global operator new for this test binary so the steady-state
// zero-allocation claim is asserted, not assumed.
#include "core/counting_allocator.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "runtime/serving_pool.h"

namespace bswp::runtime {
namespace {

// --- environment -------------------------------------------------------------

data::SyntheticCifarOptions data_opts() {
  data::SyntheticCifarOptions o;
  o.train_size = 48;
  o.image_size = 12;
  return o;
}

/// Small conv net (conv/BN/relu/maxpool/conv/relu/gap/linear) with BN stats
/// seeded — same plumbing-scale setup as test_api.
struct Env {
  nn::Graph graph;
  data::SyntheticCifar data{data_opts(), true};
  Tensor sample{std::vector<int>{1, 3, 12, 12}};

  Env() {
    int x = graph.input(3, 12, 12);
    x = graph.conv2d(x, 16, 3, 1, 1);
    x = graph.batchnorm(x);
    x = graph.relu(x);
    x = graph.maxpool(x, 2, 2);
    x = graph.conv2d(x, 24, 3, 1, 1);
    x = graph.relu(x);
    x = graph.global_avgpool(x);
    graph.linear(x, 4);
    Rng rng(3);
    graph.init_weights(rng);
    data::Batch b = data.batch(0, 16);
    graph.forward(b.images, true);
    data.sample(0, sample.data());
  }
};

Env& env() {
  static Env e;
  return e;
}

bswp::Session pooled_session() {
  Env& e = env();
  pool::CodecOptions co;
  co.pool_size = 16;
  co.kmeans_iters = 5;
  quant::CalibrateOptions qo;
  qo.num_samples = 16;
  return bswp::Deployment::from(e.graph).with_pool(co).calibrate(e.data, qo).compile();
}

Tensor image_at(int i) {
  Env& e = env();
  Tensor x({1, 3, 12, 12});
  e.data.sample(i % e.data.size(), x.data());
  return x;
}

// --- MemoryPlanner -----------------------------------------------------------

void expect_no_live_overlap(const MemoryPlan& mp, const char* tag) {
  const std::size_t n = mp.buffers.size();
  for (std::size_t a = 0; a < n; ++a) {
    const BufferPlacement& ba = mp.buffers[a];
    EXPECT_LE(ba.offset + ba.bytes, mp.act_bytes) << tag << ": buffer " << a << " out of arena";
    EXPECT_EQ(ba.offset % MemoryPlanner::kAlign, 0u) << tag << ": buffer " << a << " unaligned";
    for (std::size_t b = a + 1; b < n; ++b) {
      const BufferPlacement& bb = mp.buffers[b];
      const bool time_overlap = ba.def <= bb.last_use && bb.def <= ba.last_use;
      if (!time_overlap) continue;
      // Declared in-place pairs may share bytes: the consumer overwrites an
      // input that dies at it (rolling conv, accumulate-in-place add, ...).
      if (bb.inplace_of == static_cast<int>(a) || ba.inplace_of == static_cast<int>(b)) continue;
      const bool byte_overlap =
          ba.offset < bb.offset + bb.bytes && bb.offset < ba.offset + ba.bytes;
      EXPECT_FALSE(byte_overlap) << tag << ": live buffers " << a << " (plans " << ba.def << ".."
                                 << ba.last_use << ") and " << b << " (plans " << bb.def << ".."
                                 << bb.last_use << ") share bytes";
    }
  }
}

TEST(MemoryPlanner, NoLiveOverlapAcrossModelZoo) {
  // Every paper network (TinyConv, three ResNets, MobileNet-v2) at a small
  // width: residual forks, depthwise stages and flatten/linear tails all
  // produce valid, overlap-free placements under both sizing models.
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.num_classes = 4;
  mo.width = 0.25f;
  for (const models::NamedModel& m : models::paper_models()) {
    nn::Graph g = m.build(mo);
    Rng rng(5);
    g.init_weights(rng);
    quant::CalibrationResult cal;
    cal.input_abs_max = 1.0f;
    for (int i = 0; i < g.num_nodes(); ++i) {
      cal.node_range[i] = 1.0f;
      cal.node_abs_range[i] = 1.0f;
    }
    CompiledNetwork net = compile(g, nullptr, cal, CompileOptions{});
    Executor exec(net);  // resolves backends, builds the host plan
    expect_no_live_overlap(exec.memory_plan(), m.name.c_str());
    expect_no_live_overlap(MemoryPlanner::plan_mcu(net), m.name.c_str());
  }
}

TEST(MemoryPlanner, ReusesDeadSlots) {
  // A deep chain must not sum all activations: liveness reuse keeps the
  // arena far below the total-footprint upper bound.
  bswp::Session s = pooled_session();
  const MemoryPlan mp = MemoryPlanner::plan_mcu(s.network());
  std::size_t total = 0;
  for (const BufferPlacement& b : mp.buffers) total += b.bytes;
  EXPECT_LT(mp.act_bytes, total);
  EXPECT_GT(mp.act_bytes, 0u);
}

TEST(MemoryPlanner, FootprintSramComesFromPlan) {
  // The simulator's peak-SRAM number and the planner's MCU arena are the
  // same artifact — no more divergence between footprint() and execution.
  bswp::Session s = pooled_session();
  const sim::MemoryFootprint fp = s.footprint();
  EXPECT_EQ(fp.sram_bytes, MemoryPlanner::plan_mcu(s.network()).peak_bytes());
}

// --- Executor ----------------------------------------------------------------

TEST(Executor, ReusedArenaBitIdenticalToFresh) {
  bswp::Session s = pooled_session();
  Executor reused(s.network());
  // Repeated and interleaved inputs through one executor must match a fresh
  // executor per image (stale arena contents must never leak into results).
  const Tensor a = image_at(0), b = image_at(1), c = image_at(2);
  const QTensor fa = Executor(s.network()).run(a);
  const QTensor fb = Executor(s.network()).run(b);
  const QTensor fc = Executor(s.network()).run(c);
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(reused.run(a).data, fa.data) << "round " << round;
    EXPECT_EQ(reused.run(b).data, fb.data) << "round " << round;
    EXPECT_EQ(reused.run(a).data, fa.data) << "round " << round;  // interleaved repeat
    EXPECT_EQ(reused.run(c).data, fc.data) << "round " << round;
  }
}

TEST(Executor, SteadyStateRunIsAllocationFree) {
  bswp::Session s = pooled_session();
  Executor exec(s.network());
  const Tensor x = image_at(3);
  exec.run_view(x);  // warm-up (construction already allocated everything)
  const std::uint64_t before = bswp::alloc_count();
  for (int i = 0; i < 10; ++i) exec.run_view(x);
  const std::uint64_t after = bswp::alloc_count();
  EXPECT_EQ(after, before) << "Executor::run_view allocated on the heap in steady state";
}

TEST(Executor, ScratchStaysWithinPlan) {
  bswp::Session s = pooled_session();
  Executor exec(s.network());
  exec.run_view(image_at(4));
  EXPECT_LE(exec.scratch_high_water(), exec.memory_plan().scratch_bytes);
  EXPECT_GT(exec.memory_plan().scratch_bytes, 0u);  // bit-serial layers need scratch
}

TEST(Executor, MatchesSessionRun) {
  bswp::Session s = pooled_session();
  Executor exec(s.network());
  for (int i = 0; i < 4; ++i) {
    const Tensor x = image_at(i);
    EXPECT_EQ(exec.run(x).data, s.run(x).data);
  }
}

// --- layer-boundary cancellation ---------------------------------------------

TEST(CancelToken, ManualFlagAndDisarmedDefaults) {
  CancelToken t;
  EXPECT_FALSE(t.should_cancel(0));  // disarmed, unset: never trips
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.should_cancel(0));
  EXPECT_TRUE(t.should_cancel(17));
  t.disarm();  // clears the manual flag too
  EXPECT_FALSE(t.should_cancel(0));
}

TEST(CancelToken, ArmedScheduleTripsWhenRemainingExceedsSlack) {
  // Deterministic on a ManualClock: slack is deadline - virtual now, and
  // layer p trips once remaining_us[p] * scale exceeds it.
  ManualClock clock;
  const double remaining[3] = {300.0, 200.0, 100.0};
  CancelToken t;
  t.arm(&clock, clock.now() + std::chrono::microseconds(250), remaining, 3, 1.0);
  EXPECT_TRUE(t.should_cancel(0));   // 300 us of work, 250 us of slack
  EXPECT_FALSE(t.should_cancel(1));  // 200 <= 250
  EXPECT_FALSE(t.should_cancel(2));

  clock.advance(std::chrono::microseconds(100));  // slack 150
  EXPECT_TRUE(t.should_cancel(1));
  EXPECT_FALSE(t.should_cancel(2));  // 100 <= 150

  clock.advance(std::chrono::microseconds(100));  // slack 50
  EXPECT_TRUE(t.should_cancel(2));

  clock.advance(std::chrono::microseconds(100));  // past the deadline
  EXPECT_TRUE(t.should_cancel(99));  // beyond the schedule: deadline still applies

  t.disarm();
  EXPECT_FALSE(t.should_cancel(0));

  // The calibration scale inflates the schedule: 200 * 2 > 250.
  t.arm(&clock, clock.now() + std::chrono::microseconds(250), remaining, 3, 2.0);
  EXPECT_TRUE(t.should_cancel(1));
  EXPECT_FALSE(t.should_cancel(2));  // 100 * 2 <= 250
}

TEST(Executor, PreCancelledTokenAbortsBeforeLayerZero) {
  bswp::Session s = pooled_session();
  Executor exec(s.network());
  CancelToken t;
  t.cancel();
  EXPECT_THROW(exec.run(image_at(0), nullptr, &t), ExecutionCancelled);
  // ExecutionCancelled is a deliberate shed, not an engine fault — callers
  // must be able to tell them apart by type.
  try {
    exec.run_view(image_at(0), nullptr, &t);
    FAIL() << "cancelled run returned a view";
  } catch (const ExecutionCancelled&) {
  }
}

TEST(Executor, AbandonedRunLeavesNoPartialStateAndRerunsBitIdentical) {
  bswp::Session s = pooled_session();
  Executor exec(s.network());
  const Tensor a = image_at(0), b = image_at(1);
  const QTensor ref_a = Executor(s.network()).run(a);
  const QTensor ref_b = Executor(s.network()).run(b);
  const std::size_t layers = s.network().plans.size();
  ASSERT_GE(layers, 2u);

  // A hand-built remaining schedule that trips exactly at layer `cut`: zero
  // estimated work before it, an impossible amount at and after it. The run
  // is abandoned mid-plan with the arena holding partial layer outputs.
  ManualClock clock;
  std::vector<double> remaining(layers, 1e12);
  for (std::size_t cut = 1; cut < layers; ++cut) {
    std::fill(remaining.begin(), remaining.begin() + static_cast<std::ptrdiff_t>(cut), 0.0);
    CancelToken t;
    t.arm(&clock, clock.now() + std::chrono::milliseconds(1), remaining.data(), layers, 1.0);
    try {
      exec.run(a, nullptr, &t);
      FAIL() << "run with an unreachable deadline completed (cut " << cut << ")";
    } catch (const ExecutionCancelled&) {
    }
    // The abandoned arena must not leak into later runs: the very next
    // un-cancelled runs are bit-identical to a fresh executor's.
    EXPECT_EQ(exec.run(b).data, ref_b.data) << "cut " << cut;
    EXPECT_EQ(exec.run(a).data, ref_a.data) << "cut " << cut;
  }

  // Cancellation checks cost nothing when the token stays quiet: a run with
  // an armed-but-slack token completes and stays allocation-free.
  CancelToken quiet;
  std::vector<double> none(layers, 0.0);
  quiet.arm(&clock, clock.now() + std::chrono::hours(1), none.data(), layers, 1.0);
  exec.run_view(a, nullptr, &quiet);  // warm-up
  const std::uint64_t before = bswp::alloc_count();
  for (int i = 0; i < 5; ++i) exec.run_view(a, nullptr, &quiet);
  EXPECT_EQ(bswp::alloc_count(), before)
      << "cancellation checks allocated on the steady-state path";
  EXPECT_EQ(exec.run(a).data, ref_a.data);
}

// --- serving pool ------------------------------------------------------------

TEST(ServingPool, StressBitIdenticalToSequentialAcrossWorkerCounts) {
  bswp::Session s = pooled_session();
  std::vector<Tensor> images;
  for (int i = 0; i < 40; ++i) images.push_back(image_at(i));

  std::vector<QTensor> ref;
  for (const Tensor& x : images) ref.push_back(s.run(x));

  for (int workers : {1, 2, 4, 8}) {
    // Two batches per worker count: the second reuses the warm pool.
    for (int batch = 0; batch < 2; ++batch) {
      const std::vector<QTensor> got = s.run_batch(images, workers);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].data, ref[i].data)
            << "workers=" << workers << " batch=" << batch << " image=" << i;
        EXPECT_EQ(got[i].scale, ref[i].scale);
      }
    }
  }
}

TEST(ServingPool, BatchStatsReportLatencyPercentiles) {
  bswp::Session s = pooled_session();
  std::vector<Tensor> images;
  for (int i = 0; i < 16; ++i) images.push_back(image_at(i));
  const bswp::BatchResult r = s.run_batch_stats(images, 4);
  ASSERT_EQ(r.logits.size(), images.size());
  EXPECT_EQ(r.stats.images, images.size());
  EXPECT_GE(r.stats.workers, 1);
  EXPECT_LE(r.stats.workers, 4);
  EXPECT_EQ(r.stats.latency.count, images.size());
  EXPECT_GT(r.stats.latency.p50_us, 0.0);
  EXPECT_LE(r.stats.latency.p50_us, r.stats.latency.p95_us);
  EXPECT_LE(r.stats.latency.p95_us, r.stats.latency.p99_us);
  EXPECT_GT(r.stats.latency.mean_us, 0.0);
  EXPECT_GT(r.stats.throughput_ips, 0.0);
  EXPECT_GT(r.stats.wall_seconds, 0.0);
}

TEST(ServingPool, FailedBatchLeavesStatsUntouched) {
  // Regression: run() used to zero the caller's stats up front, so a failed
  // batch reported a partially filled struct. Failure must leave it alone.
  bswp::Session s = pooled_session();
  std::vector<Tensor> images;
  for (int i = 0; i < 8; ++i) images.push_back(image_at(i));
  images[3] = Tensor({5, 12, 12}, 0.1f);  // wrong channel count

  bswp::BatchResult r;
  r.stats.images = 777;
  r.stats.workers = -3;
  r.stats.latency.p99_us = 123.0;
  EXPECT_THROW(r.logits = s.run_batch_stats(images, 4).logits, std::invalid_argument);
  // run_batch_stats returns by value, so exercise the pool API directly too.
  ServingPool pool(s.network());
  BatchStats st;
  st.images = 777;
  st.workers = -3;
  st.latency.p99_us = 123.0;
  EXPECT_THROW(pool.run(images, 4, &st), std::invalid_argument);
  EXPECT_EQ(st.images, 777u);
  EXPECT_EQ(st.workers, -3);
  EXPECT_EQ(st.latency.p99_us, 123.0);
  // And the caller-only path:
  EXPECT_THROW(pool.run(images, 1, &st), std::invalid_argument);
  EXPECT_EQ(st.images, 777u);
}

TEST(ServingPool, ErrorStopsBatchEarlyAndPoolSurvives) {
  bswp::Session s = pooled_session();
  std::vector<Tensor> images;
  for (int i = 0; i < 12; ++i) images.push_back(image_at(i));
  images[5] = Tensor({5, 12, 12}, 0.1f);  // wrong channel count
  EXPECT_THROW(s.run_batch(images, 4), std::invalid_argument);
  // The pool must stay healthy after a failed batch.
  images[5] = image_at(5);
  const std::vector<QTensor> ok = s.run_batch(images, 4);
  ASSERT_EQ(ok.size(), images.size());
  EXPECT_EQ(ok[5].data, s.run(images[5]).data);
}

}  // namespace
}  // namespace bswp::runtime
