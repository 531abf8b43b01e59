// Property sweeps over the compiled runtime: invariants that must hold for
// every (pool size, activation bitwidth, LUT bitwidth) combination, on a
// small but non-trivial pooled network.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/rng.h"
#include "data/synthetic.h"
#include "quant/calibrate.h"
#include "runtime/evaluate.h"
#include "runtime/pipeline.h"

namespace bswp::runtime {
namespace {

/// One-shot arena run helpers (each sweep point compiles its own network).
QTensor run(const CompiledNetwork& net, const Tensor& image, sim::CostCounter* counter = nullptr) {
  Executor exec(net);
  return exec.run(image, counter);
}

Tensor run_logits(const CompiledNetwork& net, const Tensor& image) {
  return run(net, image).dequantize();
}

struct Env {
  nn::Graph graph;
  pool::PooledNetwork pooled;
  quant::CalibrationResult cal;
  data::SyntheticCifar data;
  Tensor sample;

  Env()
      : data(
            [] {
              data::SyntheticCifarOptions o;
              o.train_size = 48;
              o.image_size = 12;
              return o;
            }(),
            true),
        sample({1, 3, 12, 12}) {
    int x = graph.input(3, 12, 12);
    x = graph.conv2d(x, 16, 3, 1, 1);
    x = graph.relu(x);
    x = graph.conv2d(x, 24, 3, 1, 1);
    x = graph.batchnorm(x);
    x = graph.relu(x);
    x = graph.conv2d(x, 24, 1, 1, 0);
    x = graph.relu(x);
    x = graph.global_avgpool(x);
    graph.linear(x, 5);
    Rng rng(9);
    graph.init_weights(rng);
    data::Batch b = data.batch(0, 16);
    graph.forward(b.images, true);

    pool::CodecOptions co;
    co.pool_size = 16;
    co.kmeans_iters = 6;
    pooled = pool::build_weight_pool(graph, co);
    pool::reconstruct_weights(graph, pooled);
    quant::CalibrateOptions qo;
    qo.num_samples = 32;
    cal = quant::calibrate(graph, data, qo);
    data.sample(0, sample.data());
  }
};

Env& env() {
  static Env e;
  return e;
}

class ActBitsGrid : public ::testing::TestWithParam<int> {};

TEST_P(ActBitsGrid, RunsAndIsDeterministic) {
  Env& e = env();
  CompileOptions opt;
  opt.act_bits = GetParam();
  CompiledNetwork net = compile(e.graph, &e.pooled, e.cal, opt);
  QTensor a = run(net, e.sample);
  QTensor b = run(net, e.sample);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.shape, (std::vector<int>{1, 5}));
}

TEST_P(ActBitsGrid, CostMonotoneInBitwidth) {
  Env& e = env();
  const int bits = GetParam();
  if (bits == 8) return;
  CompileOptions lo, hi;
  lo.act_bits = bits;
  hi.act_bits = bits + 1;
  sim::CostCounter cl, ch;
  run(compile(e.graph, &e.pooled, e.cal, lo), e.sample, &cl);
  run(compile(e.graph, &e.pooled, e.cal, hi), e.sample, &ch);
  const sim::McuProfile mcu = sim::mc_large();
  EXPECT_LT(mcu.cycles(cl), mcu.cycles(ch)) << "bits " << bits;
}

INSTANTIATE_TEST_SUITE_P(OneToEight, ActBitsGrid, ::testing::Range(1, 9));

class LutBitsGrid : public ::testing::TestWithParam<int> {};

TEST_P(LutBitsGrid, WideLutMatchesNoLutLogitsClosely) {
  Env& e = env();
  CompileOptions opt;
  opt.lut_bits = GetParam();
  CompiledNetwork pooled_net = compile(e.graph, &e.pooled, e.cal, opt);
  CompiledNetwork ref_net = compile(e.graph, nullptr, e.cal, CompileOptions{});
  Tensor lq = run_logits(pooled_net, e.sample);
  Tensor rq = run_logits(ref_net, e.sample);
  double err = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < lq.size(); ++i) {
    err += std::abs(lq[i] - rq[i]);
    norm += std::abs(rq[i]);
  }
  // Wide LUTs track the baseline closely; 4-bit is allowed to drift more.
  const double tolerance = GetParam() >= 8 ? 0.30 : 1.0;
  EXPECT_LT(err, tolerance * norm + 0.5) << "Bl=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Table5Grid, LutBitsGrid, ::testing::Values(4, 8, 16, 32));

TEST(RuntimePolicy, NarrowLayersSkipLutCaching) {
  // The §4.3 policy the report prices beside every cost-model choice: with a
  // 64-entry pool, an 8-filter layer cannot amortize the block copies and
  // gets plain input-reuse; >=16 filters get the cache; more filters than
  // pool entries get the precomputed cache.
  nn::Graph g;
  int x = g.input(8, 8, 8);
  x = g.conv2d(x, 8, 3, 1, 1);
  x = g.relu(x);
  x = g.conv2d(x, 16, 3, 1, 1);
  x = g.relu(x);
  x = g.conv2d(x, 96, 3, 1, 1);  // > pool size -> precompute
  x = g.relu(x);
  x = g.global_avgpool(x);
  g.linear(x, 3);
  Rng rng(10);
  g.init_weights(rng);

  data::SyntheticCifarOptions dopt;
  dopt.train_size = 16;
  dopt.image_size = 8;
  data::SyntheticCifar ds(dopt, true);
  // 8-channel input requires an 8-channel dataset; calibrate on activations
  // of a forward pass instead by wrapping the graph input.
  // Simpler: calibrate with max mode over random tensors via the dataset is
  // not possible here, so build the calibration by hand.
  quant::CalibrationResult cal;
  cal.input_abs_max = 1.0f;
  for (int i = 0; i < g.num_nodes(); ++i) {
    cal.node_range[i] = 1.0f;
    cal.node_abs_range[i] = 1.0f;
  }

  pool::CodecOptions co;
  co.pool_size = 64;
  co.kmeans_iters = 4;
  pool::PooledNetwork pooled = pool::build_weight_pool(g, co);
  CompileReport report;
  compile(g, &pooled, cal, CompileOptions{}, &report);
  using kernels::BitSerialVariant;
  const BitSerialVariant rule[] = {
      BitSerialVariant::kInputReuse,        // 8 filters
      BitSerialVariant::kCached,            // 16 filters
      BitSerialVariant::kCachedPrecompute,  // 96 filters
  };
  ASSERT_EQ(report.backend_choices.size(), std::size(rule));
  for (std::size_t i = 0; i < std::size(rule); ++i) {
    const BackendChoice& c = report.backend_choices[i];
    const std::string want = std::string("bitserial/") + kernels::variant_name(rule[i]);
    const auto cand = std::find_if(c.candidates.begin(), c.candidates.end(),
                                   [&](const BackendCandidate& k) { return k.backend == want; });
    ASSERT_NE(cand, c.candidates.end()) << c.layer;
    EXPECT_EQ(c.heuristic_cycles, cand->cycles) << c.layer << " " << want;
  }
}

class GroupSizeGrid : public ::testing::TestWithParam<int> {};

TEST_P(GroupSizeGrid, FullPipelineRunsAtNonDefaultGroupSizes) {
  // Table 1 studies group sizes 4/8/16; the runtime must support them all
  // (LUT has 2^G entries per pool vector, kernels unpack G-element vectors).
  const int G = GetParam();
  Env& e = env();
  pool::CodecOptions co;
  co.pool_size = 8;
  co.group_size = G;
  co.kmeans_iters = 4;
  nn::Graph g = e.graph;
  pool::PooledNetwork pooled = pool::build_weight_pool(g, co);
  pool::reconstruct_weights(g, pooled);
  quant::CalibrateOptions qo;
  qo.num_samples = 16;
  quant::CalibrationResult cal = quant::calibrate(g, e.data, qo);
  CompiledNetwork net = compile(g, &pooled, cal, CompileOptions{});
  EXPECT_EQ(net.lut.group_size, G);
  EXPECT_EQ(net.lut.entries.size(), static_cast<std::size_t>(1 << G) * 8);
  QTensor out = run(net, e.sample);
  EXPECT_EQ(out.shape, (std::vector<int>{1, 5}));
  // Variant equivalence holds at every group size.
  CompileOptions forced;
  forced.force_variant = true;
  forced.forced_variant = kernels::BitSerialVariant::kInputReuse;
  QTensor out2 = run(compile(g, &pooled, cal, forced), e.sample);
  EXPECT_EQ(out.data, out2.data);
}

INSTANTIATE_TEST_SUITE_P(Table1Sizes, GroupSizeGrid, ::testing::Values(4, 8, 12));

TEST(RuntimeProps, FootprintIndependentOfWeights) {
  Env& e = env();
  CompiledNetwork a = compile(e.graph, &e.pooled, e.cal, CompileOptions{});
  nn::Graph g2 = e.graph;
  Rng rng(123);
  for (int node : g2.conv_nodes(true)) rng.fill_normal(g2.node(node).weight, 0.5f);
  CompiledNetwork b = compile(g2, &e.pooled, e.cal, CompileOptions{});
  EXPECT_EQ(footprint(a).flash_bytes, footprint(b).flash_bytes);
  EXPECT_EQ(footprint(a).sram_bytes, footprint(b).sram_bytes);
}

TEST(RuntimeProps, EventCountsIndependentOfInputData) {
  // Cost is a function of geometry: two different images yield identical
  // event tallies (no data-dependent control flow in the deployed variants).
  Env& e = env();
  CompiledNetwork net = compile(e.graph, &e.pooled, e.cal, CompileOptions{});
  Tensor other({1, 3, 12, 12}, 0.7f);
  sim::CostCounter c1, c2;
  run(net, e.sample, &c1);
  run(net, other, &c2);
  for (int i = 0; i < sim::kNumEvents; ++i) {
    EXPECT_EQ(c1.count(static_cast<sim::Event>(i)), c2.count(static_cast<sim::Event>(i)));
  }
}

}  // namespace
}  // namespace bswp::runtime
