// Batched execution tests: batch-N bit-identity against the scalar lane run
// one image at a time, across the whole model zoo (act_bits {4, 8}, both
// host lanes, odd batch sizes), with CostCounter batch-invariance (a batched
// run tallies exactly N x the per-image counts, so MCU latency estimates
// never depend on serving batch size); the zero-heap-allocation guarantee of
// the warm batched path, the XNOR backend on both lanes, and the
// ServingPool's chunked batched steal loop.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "api/bswp.h"
#include "binary/binary_backend.h"
// Replaces global operator new for this test binary so the batched path's
// steady-state zero-allocation claim is asserted, not assumed.
#include "core/counting_allocator.h"
#include "core/rng.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/serving_pool.h"

namespace bswp::runtime {
namespace {

// --- environment (golden-harness style, mirrors test_simd_kernels) -----------

struct ZooCase {
  nn::Graph graph;
  std::unique_ptr<data::Dataset> cal;
  std::vector<Tensor> images;
};

ZooCase make_case(const models::NamedModel& m, uint64_t seed, int n_images) {
  ZooCase c;
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.width = 0.25f;
  mo.num_classes = 10;
  if (m.on_cifar) {
    data::SyntheticCifarOptions o;
    o.train_size = 48;
    o.image_size = 16;
    c.cal = std::make_unique<data::SyntheticCifar>(o, true);
    mo.in_channels = 3;
  } else {
    data::SyntheticQuickdrawOptions o;
    o.train_size = 48;
    o.image_size = 16;
    o.num_classes = 10;
    c.cal = std::make_unique<data::SyntheticQuickdraw>(o, true);
    mo.in_channels = 1;
  }
  c.graph = m.build(mo);
  Rng rng(seed);
  c.graph.init_weights(rng);
  data::Batch b = c.cal->batch(0, 16);
  c.graph.forward(b.images, true);
  for (int i = 0; i < n_images; ++i) {
    Tensor x({1, mo.in_channels, 16, 16});
    c.cal->sample(i % 48, x.data());
    c.images.push_back(std::move(x));
  }
  return c;
}

bswp::Deployment make_deployment(ZooCase& c) {
  pool::CodecOptions co;
  co.pool_size = 16;
  co.kmeans_iters = 5;
  co.max_cluster_vectors = 3000;
  quant::CalibrateOptions qo;
  qo.num_samples = 24;
  return bswp::Deployment::from(c.graph).with_pool(co).calibrate(*c.cal, qo);
}

// --- batch-N bit-identity across the zoo -------------------------------------

TEST(BatchedExecutor, ZooBatchBitIdenticalToScalarSingleImageAcrossLanesAndBits) {
  // For every paper network and both act_bits: one run_batch_view over N
  // images on either host lane must produce byte-identical logits, and
  // exactly N x the counter tallies, of the scalar lane run one image at a
  // time — at batch sizes 1 (the single-image case, same code path), 3 (odd
  // partial batch) and 8 (the planned max).
  constexpr int kMaxBatch = 8;
  uint64_t seed = 4321;
  for (const models::NamedModel& m : models::paper_models()) {
    ZooCase c = make_case(m, seed++, kMaxBatch);
    bswp::Deployment dep = make_deployment(c);
    for (int bits : {4, 8}) {
      bswp::Session scalar = dep.act_bits(bits).host_lanes(HostLaneSelect::kScalar).compile();
      Executor seq(scalar.network());
      std::vector<QTensor> ref;
      std::vector<sim::CostCounter> ref_counts(c.images.size());
      for (std::size_t i = 0; i < c.images.size(); ++i) {
        ref.push_back(seq.run(c.images[i], &ref_counts[i]));
      }

      for (HostLaneSelect lanes : {HostLaneSelect::kScalar, HostLaneSelect::kSimd}) {
        bswp::Session s = dep.act_bits(bits).host_lanes(lanes).compile();
        Executor batched(s.network(), kMaxBatch);
        for (int n : {1, 3, kMaxBatch}) {
          sim::CostCounter counts;
          batched.run_batch_view(
              std::span<const Tensor>(c.images.data(), static_cast<std::size_t>(n)), &counts);
          sim::CostCounter want;
          for (int i = 0; i < n; ++i) {
            const QTensor got = batched.logits_view(i).to_qtensor();
            EXPECT_EQ(got.data, ref[static_cast<std::size_t>(i)].data)
                << m.name << " bits=" << bits << " lanes=" << static_cast<int>(lanes)
                << " batch=" << n << " image=" << i;
            EXPECT_EQ(got.scale, ref[static_cast<std::size_t>(i)].scale);
            want.merge(ref_counts[static_cast<std::size_t>(i)]);
          }
          for (int e = 0; e < sim::kNumEvents; ++e) {
            const auto ev = static_cast<sim::Event>(e);
            EXPECT_EQ(counts.count(ev), want.count(ev))
                << m.name << " bits=" << bits << " lanes=" << static_cast<int>(lanes)
                << " batch=" << n << " event " << sim::event_name(ev);
          }
        }
      }
    }
  }
}

TEST(BatchedExecutor, SteadyStateBatchRunIsAllocationFree) {
  ZooCase c = make_case(models::paper_models()[0], 55, 4);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.act_bits(8).host_lanes(HostLaneSelect::kCostModel).compile();
  Executor exec(s.network(), 4);
  const std::span<const Tensor> batch(c.images.data(), 4);
  exec.run_batch_view(batch);  // warm-up (construction already allocated everything)
  const std::uint64_t before = bswp::alloc_count();
  for (int i = 0; i < 10; ++i) exec.run_batch_view(batch);
  const std::uint64_t after = bswp::alloc_count();
  EXPECT_EQ(after, before) << "Executor::run_batch_view allocated on the heap in steady state";
}

TEST(BatchedExecutor, RejectsOversizedBatch) {
  ZooCase c = make_case(models::paper_models()[0], 66, 3);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();
  Executor exec(s.network(), 2);
  EXPECT_EQ(exec.max_batch(), 2);
  EXPECT_THROW(exec.run_batch_view(std::span<const Tensor>(c.images.data(), 3)),
               std::exception);
}

// --- XNOR batched core -------------------------------------------------------

/// Hand-built two-plan network (quantized input -> binarized conv), the
/// test_registry idiom: the zoo compile path never emits kConvBinary, so the
/// batched XNOR core is exercised directly.
CompiledNetwork binary_net(const Tensor& w, const nn::ConvSpec& spec) {
  CompiledNetwork net;
  LayerPlan input;
  input.kind = PlanKind::kInput;
  input.name = "input";
  input.out_chw = {spec.in_ch, 6, 6};
  input.out.scale = 1.0f / 127.0f;
  input.out.bits = 8;
  input.out.is_signed = true;
  net.plans.push_back(input);

  kernels::Requant rq;
  rq.scale.assign(static_cast<std::size_t>(spec.out_ch), 1.0f);
  rq.bias.assign(static_cast<std::size_t>(spec.out_ch), 0.0f);
  rq.out.scale = 1.0f;
  rq.out.bits = 8;
  rq.out.is_signed = true;
  rq.out.zero_point = 0;
  rq.fuse_relu = false;

  LayerPlan conv = binary::make_binary_conv_plan(w, spec, rq);
  conv.name = "xnor";
  conv.inputs = {0};
  conv.out_chw = {spec.out_ch, 6, 6};
  net.plans.push_back(conv);
  return net;
}

TEST(BatchedExecutor, XnorBatchBitIdenticalToScalarAndCounterInvariantOnBothLanes) {
  nn::ConvSpec spec;
  spec.in_ch = 4;
  spec.out_ch = 2;
  spec.kh = spec.kw = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.groups = 1;
  Tensor w({2, 4, 3, 3});
  Rng rng(11);
  rng.fill_normal(w, 1.0f);
  CompiledNetwork net = binary_net(w, spec);

  std::vector<Tensor> images;
  for (int b = 0; b < 3; ++b) {
    Tensor x({1, 4, 6, 6});
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = ((i + static_cast<std::size_t>(b)) % 3 == 0) ? 0.5f : -0.25f;
    }
    images.push_back(std::move(x));
  }

  // Reference: the scalar XNOR backend, one image at a time.
  CompiledNetwork scalar_net = net;
  scalar_net.plans[1].lane = HostLane::kScalar;
  Executor seq(scalar_net);
  sim::CostCounter one;
  std::vector<QTensor> ref;
  for (const Tensor& x : images) ref.push_back(seq.run(x));
  seq.run_view(images[0], &one);

  for (HostLane lane : {HostLane::kScalar, HostLane::kSimd}) {
    net.plans[1].lane = lane;
    Executor batched(net, 3);
    sim::CostCounter three;
    batched.run_batch_view(std::span<const Tensor>(images.data(), 3), &three);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(batched.logits_view(i).to_qtensor().data, ref[static_cast<std::size_t>(i)].data)
          << "lane " << host_lane_name(lane) << " image " << i;
    }
    for (int e = 0; e < sim::kNumEvents; ++e) {
      const auto ev = static_cast<sim::Event>(e);
      EXPECT_EQ(three.count(ev), 3 * one.count(ev))
          << "lane " << host_lane_name(lane) << " event " << sim::event_name(ev);
    }
  }
}

// --- ServingPool chunked batched steal loop ----------------------------------

TEST(BatchedServingPool, ChunkedBatchesBitIdenticalToPerImagePool) {
  // exec_batch = 1 reproduces the per-image steal loop; larger widths route
  // each stolen chunk through one run_batch_view. All settings must agree
  // bit-for-bit, including a ragged tail (17 images, chunks of 4).
  ZooCase c = make_case(models::paper_models()[0], 33, 17);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();

  ServingPool per_image(s.network(), /*exec_batch=*/1);
  std::vector<QTensor> ref = per_image.run(c.images, 2);
  for (int exec_batch : {3, 4, 8}) {
    ServingPool pool(s.network(), exec_batch);
    for (int workers : {1, 3}) {
      BatchStats st;
      const std::vector<QTensor> got = pool.run(c.images, workers, &st);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(got[i].data, ref[i].data)
            << "exec_batch=" << exec_batch << " workers=" << workers << " image=" << i;
      }
      EXPECT_EQ(st.latency.count, c.images.size());
      EXPECT_GT(st.latency.mean_us, 0.0);
    }
  }
}

TEST(BatchedServingPool, FailedBatchLeavesStatsUntouchedUnderChunking) {
  // PR-4 semantics must survive chunked execution: a failing image aborts
  // the batch early, the first error is rethrown after quiescence, the
  // caller's stats stay untouched, and the pool serves the next batch.
  ZooCase c = make_case(models::paper_models()[0], 44, 9);
  bswp::Deployment dep = make_deployment(c);
  bswp::Session s = dep.compile();

  std::vector<Tensor> images = c.images;
  const Tensor good = images[4];
  images[4] = Tensor({5, 16, 16}, 0.1f);  // wrong channel count

  ServingPool pool(s.network(), /*exec_batch=*/4);
  BatchStats st;
  st.images = 777;
  st.workers = -3;
  st.latency.p99_us = 123.0;
  EXPECT_THROW(pool.run(images, 3, &st), std::invalid_argument);
  EXPECT_EQ(st.images, 777u);
  EXPECT_EQ(st.workers, -3);
  EXPECT_EQ(st.latency.p99_us, 123.0);
  // Single-worker inline path takes the same chunked route.
  EXPECT_THROW(pool.run(images, 1, &st), std::invalid_argument);
  EXPECT_EQ(st.images, 777u);

  images[4] = good;
  const std::vector<QTensor> ok = pool.run(images, 3, &st);
  ASSERT_EQ(ok.size(), images.size());
  EXPECT_EQ(st.images, images.size());
  Executor check_exec(s.network());
  EXPECT_EQ(ok[4].data, check_exec.run(images[4]).data);
}

}  // namespace
}  // namespace bswp::runtime
