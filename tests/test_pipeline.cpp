#include "runtime/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/rng.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "runtime/evaluate.h"
#include "runtime/executor.h"

namespace bswp::runtime {
namespace {

struct PipelineEnv {
  nn::Graph graph;
  pool::PooledNetwork pooled;
  quant::CalibrationResult cal;
  data::SyntheticCifar data;

  explicit PipelineEnv(float width = 0.25f, uint64_t seed = 1)
      : data(
            [] {
              data::SyntheticCifarOptions o;
              o.train_size = 64;
              o.image_size = 16;
              return o;
            }(),
            true) {
    models::ModelOptions mo;
    mo.image_size = 16;
    mo.width = width;
    graph = models::build_resnet_s(mo);
    Rng rng(seed);
    graph.init_weights(rng);
    // One training-mode pass seeds BN running stats with sane values.
    data::Batch b = data.batch(0, 32);
    graph.forward(b.images, true);

    pool::CodecOptions co;
    co.pool_size = 16;
    co.kmeans_iters = 8;
    co.max_cluster_vectors = 4000;
    pooled = pool::build_weight_pool(graph, co);
    pool::reconstruct_weights(graph, pooled);

    quant::CalibrateOptions qo;
    qo.num_samples = 32;
    cal = quant::calibrate(graph, data, qo);
  }
};

TEST(Pipeline, CompilesResNetWithPooledAndBaselineLayers) {
  PipelineEnv s;
  CompileOptions opt;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, opt);
  EXPECT_TRUE(net.has_lut);
  EXPECT_GT(net.count_kind(PlanKind::kConvBitSerial), 5);
  EXPECT_GE(net.count_kind(PlanKind::kConvBaseline), 1);  // first conv
  EXPECT_EQ(net.count_kind(PlanKind::kLinearBaseline), 1);
  EXPECT_GT(net.count_kind(PlanKind::kAdd), 0);
}

TEST(Pipeline, UncompressedBuildHasNoLut) {
  PipelineEnv s;
  CompiledNetwork net = compile(s.graph, nullptr, s.cal, CompileOptions{});
  EXPECT_FALSE(net.has_lut);
  EXPECT_EQ(net.count_kind(PlanKind::kConvBitSerial), 0);
}

TEST(Pipeline, BatchNormFoldedIntoRequant) {
  PipelineEnv s;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, CompileOptions{});
  // No plan kind exists for BN: it must be absorbed.
  for (const LayerPlan& p : net.plans) {
    EXPECT_NE(p.name.substr(0, 2), "bn");
  }
  // Requant scales differ across channels where BN gammas differ.
  bool per_channel_seen = false;
  for (const LayerPlan& p : net.plans) {
    if (p.kind != PlanKind::kConvBitSerial) continue;
    for (std::size_t c = 1; c < p.rq.scale.size(); ++c) {
      if (p.rq.scale[c] != p.rq.scale[0]) per_channel_seen = true;
    }
  }
  // Freshly initialized BN has gamma=1 everywhere, but running stats from the
  // training pass differ per channel, which shows up in the bias terms.
  bool bias_differs = false;
  for (const LayerPlan& p : net.plans) {
    if (p.kind != PlanKind::kConvBitSerial) continue;
    for (std::size_t c = 1; c < p.rq.bias.size(); ++c) {
      if (p.rq.bias[c] != p.rq.bias[0]) bias_differs = true;
    }
  }
  EXPECT_TRUE(per_channel_seen || bias_differs);
}

TEST(Pipeline, ReluChainsProduceUnsignedZeroPointOutputs) {
  PipelineEnv s;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, CompileOptions{});
  for (const LayerPlan& p : net.plans) {
    if (p.kind == PlanKind::kConvBitSerial || p.kind == PlanKind::kConvBaseline) {
      if (p.rq.fuse_relu) {
        EXPECT_EQ(p.out.zero_point, 0);
      } else {
        // Residual-branch convs produce offset-unsigned outputs.
        EXPECT_EQ(p.out.zero_point, 1 << (net.act_bits - 1));
      }
    }
  }
}

/// The paper's §4.2-4.3 layer policy, restated as the test's oracle:
/// precompute when filters exceed the pool size, cache when the filter loop
/// amortizes the block copies, flash reads otherwise; linear layers cache.
kernels::BitSerialVariant filters_vs_pool_variant(const LayerPlan& p, int pool_size) {
  if (p.kind == PlanKind::kLinearBitSerial) return kernels::BitSerialVariant::kCached;
  if (p.spec.out_ch > pool_size) return kernels::BitSerialVariant::kCachedPrecompute;
  if (p.spec.out_ch * 4 >= pool_size) return kernels::BitSerialVariant::kCached;
  return kernels::BitSerialVariant::kInputReuse;
}

const LayerPlan& plan_named(const CompiledNetwork& net, const std::string& name) {
  for (const LayerPlan& p : net.plans) {
    if (p.name == name) return p;
  }
  throw std::runtime_error("no plan named " + name);
}

TEST(Pipeline, HeuristicCyclesFollowFilterVsPoolRule) {
  PipelineEnv s(0.5f);  // pool size 16; widths 8/16/32 -> the 32-filter stage > 16
  CompileReport report;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, CompileOptions{}, &report);
  int precompute = 0, cached = 0;
  for (const BackendChoice& c : report.backend_choices) {
    const kernels::BitSerialVariant v =
        filters_vs_pool_variant(plan_named(net, c.layer), net.lut.pool_size);
    (v == kernels::BitSerialVariant::kCachedPrecompute ? precompute : cached) += 1;
    const std::string want = std::string("bitserial/") + kernels::variant_name(v);
    const auto cand = std::find_if(c.candidates.begin(), c.candidates.end(),
                                   [&](const BackendCandidate& k) { return k.backend == want; });
    ASSERT_NE(cand, c.candidates.end()) << c.layer;
    EXPECT_EQ(c.heuristic_cycles, cand->cycles) << c.layer << " " << want;
  }
  EXPECT_GT(precompute, 0);  // the env exercises both arms of the rule
  EXPECT_GT(cached, 0);
}

TEST(Pipeline, CostModelSelectionReportIsOptimalPerLayer) {
  PipelineEnv s;
  CompileOptions opt;
  CompileReport report;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, opt, &report);
  ASSERT_FALSE(report.backend_choices.empty());
  ASSERT_EQ(report.backend_choices.size(),
            static_cast<std::size_t>(net.count_kind(PlanKind::kConvBitSerial) +
                                     net.count_kind(PlanKind::kLinearBitSerial)));
  for (const BackendChoice& c : report.backend_choices) {
    // The chosen variant is the cheapest selectable candidate, and never
    // worse than what the old filters-vs-pool heuristic would have picked.
    for (const BackendCandidate& cand : c.candidates) {
      if (cand.selectable) {
        EXPECT_LE(c.chosen_cycles, cand.cycles) << c.layer;
      }
    }
    EXPECT_LE(c.chosen_cycles, c.heuristic_cycles) << c.layer;
    EXPECT_GT(c.chosen_cycles, 0.0) << c.layer;
  }
}

TEST(Pipeline, CostModelMatchesOrBeatsHeuristicLatency) {
  PipelineEnv s;
  CompiledNetwork cost_net = compile(s.graph, &s.pooled, s.cal, CompileOptions{});
  // The same network with every pooled layer re-pointed at the §4.3 variant.
  CompiledNetwork heur_net = cost_net;
  for (LayerPlan& p : heur_net.plans) {
    if (p.kind == PlanKind::kConvBitSerial || p.kind == PlanKind::kLinearBitSerial) {
      p.variant = filters_vs_pool_variant(p, heur_net.lut.pool_size);
    }
  }
  Tensor x({1, 3, 16, 16}, 0.25f);
  const LatencyReport cost_lat = estimate_latency(cost_net, sim::mc_large(), x);
  const LatencyReport heur_lat = estimate_latency(heur_net, sim::mc_large(), x);
  EXPECT_LE(cost_lat.cycles, heur_lat.cycles);
  // And both pipelines produce bit-identical logits (variants only differ in
  // cost, never in arithmetic).
  Executor a(cost_net), b(heur_net);
  EXPECT_EQ(a.run(x).data, b.run(x).data);
}

TEST(Pipeline, PassTraceRecordsTheDefaultPipeline) {
  PipelineEnv s;
  CompileOptions opt;
  opt.pass_trace = true;
  CompileReport report;
  compile(s.graph, &s.pooled, s.cal, opt, &report);
  ASSERT_EQ(report.pass_trace.size(), 6u);
  EXPECT_EQ(report.pass_trace[0].pass, "FoldBatchNorm");
  EXPECT_EQ(report.pass_trace[1].pass, "FuseActivations");
  EXPECT_EQ(report.pass_trace[2].pass, "EliminateDeadNodes");
  EXPECT_EQ(report.pass_trace[3].pass, "AssignActivationQuant");
  EXPECT_EQ(report.pass_trace[4].pass, "SelectBackends");
  EXPECT_EQ(report.pass_trace[5].pass, "Legalize");
  // ResNet-s has BN on every conv: the fold pass must report real work, and
  // fusion must shrink the graph further.
  EXPECT_GT(report.pass_trace[0].changes, 5);
  EXPECT_LT(report.pass_trace[1].live_after, report.pass_trace[1].live_before);
  EXPECT_FALSE(report.summary().empty());
}

TEST(Pipeline, ForceVariantOverridesPolicy) {
  PipelineEnv s;
  CompileOptions opt;
  opt.force_variant = true;
  opt.forced_variant = kernels::BitSerialVariant::kInputReuse;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, opt);
  for (const LayerPlan& p : net.plans) {
    if (p.kind == PlanKind::kConvBitSerial) {
      EXPECT_EQ(p.variant, kernels::BitSerialVariant::kInputReuse);
    }
  }
}

TEST(Pipeline, ActBitsPropagateToPlans) {
  PipelineEnv s;
  CompileOptions opt;
  opt.act_bits = 4;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, opt);
  EXPECT_EQ(net.act_bits, 4);
  for (const LayerPlan& p : net.plans) {
    if (p.kind == PlanKind::kConvBitSerial) {
      EXPECT_EQ(p.rq.out.bits, 4);
    }
  }
  EXPECT_THROW(
      {
        CompileOptions bad;
        bad.act_bits = 9;
        compile(s.graph, &s.pooled, s.cal, bad);
      },
      std::invalid_argument);
}

TEST(Pipeline, LutBitwidthPropagates) {
  PipelineEnv s;
  CompileOptions opt;
  opt.lut_bits = 4;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, opt);
  EXPECT_EQ(net.lut.bitwidth, 4);
  for (int32_t e : net.lut.entries) {
    EXPECT_LE(e, 7);
    EXPECT_GE(e, -8);
  }
}

TEST(Pipeline, ClassifierLogitsAre16Bit) {
  PipelineEnv s;
  CompiledNetwork net = compile(s.graph, &s.pooled, s.cal, CompileOptions{});
  const LayerPlan& last = net.plans.back();
  EXPECT_EQ(last.kind, PlanKind::kLinearBaseline);
  EXPECT_EQ(last.out.bits, 16);
  EXPECT_TRUE(last.out.is_signed);
}

TEST(Pipeline, MobileNetCompilesWithSignedPointwiseInputs) {
  // MobileNet-v2 has residual adds without ReLU feeding 1x1 pooled convs —
  // the offset-unsigned + row-sum-correction path.
  data::SyntheticCifarOptions dopt;
  dopt.train_size = 32;
  dopt.image_size = 16;
  data::SyntheticCifar ds(dopt, true);
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.width = 0.25f;
  nn::Graph g = models::build_mobilenet_v2(mo);
  Rng rng(3);
  g.init_weights(rng);
  data::Batch b = ds.batch(0, 16);
  g.forward(b.images, true);

  pool::CodecOptions co;
  co.pool_size = 16;
  co.kmeans_iters = 5;
  co.max_cluster_vectors = 3000;
  pool::PooledNetwork pooled = pool::build_weight_pool(g, co);
  pool::reconstruct_weights(g, pooled);
  quant::CalibrateOptions qo;
  qo.num_samples = 16;
  quant::CalibrationResult cal = quant::calibrate(g, ds, qo);

  CompiledNetwork net = compile(g, &pooled, cal, CompileOptions{});
  EXPECT_GT(net.count_kind(PlanKind::kConvBitSerial), 10);
  // Depthwise layers stay baseline.
  int grouped_baseline = 0;
  for (const LayerPlan& p : net.plans) {
    if (p.kind == PlanKind::kConvBaseline && p.spec.groups > 1) ++grouped_baseline;
  }
  EXPECT_GT(grouped_baseline, 5);
  // And it runs.
  Tensor x({1, 3, 16, 16}, 0.5f);
  EXPECT_NO_THROW(Executor(net).run(x));
}

}  // namespace
}  // namespace bswp::runtime
