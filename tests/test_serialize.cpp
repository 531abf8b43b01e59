#include "runtime/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "data/synthetic.h"
#include "quant/calibrate.h"
#include "runtime/executor.h"
#include "runtime/pipeline.h"

namespace bswp::runtime {
namespace {

/// One-shot arena run (the tests here compare saved/loaded networks).
QTensor run(const CompiledNetwork& net, const Tensor& image, sim::CostCounter* counter = nullptr) {
  Executor exec(net);
  return exec.run(image, counter);
}

struct Env {
  nn::Graph graph;
  pool::PooledNetwork pooled;
  CompiledNetwork net;
  Tensor sample{std::vector<int>{1, 3, 12, 12}};
  std::unique_ptr<data::SyntheticCifar> ds;

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

    data::SyntheticCifarOptions o;
    o.train_size = 32;
    o.image_size = 12;
    ds = std::make_unique<data::SyntheticCifar>(o, true);
    data::Batch b = ds->batch(0, 16);
    graph.forward(b.images, true);

    pool::CodecOptions co;
    co.pool_size = 16;
    co.kmeans_iters = 5;
    pooled = pool::build_weight_pool(graph, co);
    pool::reconstruct_weights(graph, pooled);
    quant::CalibrateOptions qo;
    qo.num_samples = 16;
    quant::CalibrationResult cal = quant::calibrate(graph, *ds, qo);
    net = compile(graph, &pooled, cal, CompileOptions{});
    ds->sample(0, sample.data());
  }

  const data::Dataset* cal_data() const { return ds.get(); }
};

Env& env() {
  static Env e;
  return e;
}

TEST(Serialize, RoundTripPreservesStructure) {
  Env& e = env();
  std::stringstream buf;
  save_network(e.net, buf);
  CompiledNetwork loaded = load_network(buf);
  ASSERT_EQ(loaded.plans.size(), e.net.plans.size());
  EXPECT_EQ(loaded.act_bits, e.net.act_bits);
  EXPECT_EQ(loaded.has_lut, e.net.has_lut);
  EXPECT_EQ(loaded.lut.entries, e.net.lut.entries);
  for (std::size_t i = 0; i < loaded.plans.size(); ++i) {
    EXPECT_EQ(loaded.plans[i].kind, e.net.plans[i].kind) << i;
    EXPECT_EQ(loaded.plans[i].inputs, e.net.plans[i].inputs) << i;
    EXPECT_EQ(loaded.plans[i].indices.idx, e.net.plans[i].indices.idx) << i;
    EXPECT_EQ(loaded.plans[i].qweights.data, e.net.plans[i].qweights.data) << i;
  }
}

TEST(Serialize, RoundTripBitIdenticalInference) {
  Env& e = env();
  std::stringstream buf;
  save_network(e.net, buf);
  CompiledNetwork loaded = load_network(buf);
  QTensor a = run(e.net, e.sample);
  QTensor b = run(loaded, e.sample);
  EXPECT_EQ(a.data, b.data);
}

TEST(Serialize, RoundTripPreservesFootprintAndCost) {
  Env& e = env();
  std::stringstream buf;
  save_network(e.net, buf);
  CompiledNetwork loaded = load_network(buf);
  EXPECT_EQ(footprint(loaded).flash_bytes, footprint(e.net).flash_bytes);
  EXPECT_EQ(footprint(loaded).sram_bytes, footprint(e.net).sram_bytes);
  sim::CostCounter ca, cb;
  run(e.net, e.sample, &ca);
  run(loaded, e.sample, &cb);
  for (int i = 0; i < sim::kNumEvents; ++i) {
    EXPECT_EQ(ca.count(static_cast<sim::Event>(i)), cb.count(static_cast<sim::Event>(i)));
  }
}

TEST(Serialize, FileRoundTrip) {
  Env& e = env();
  const std::string path = "/tmp/bswp_test_net.bin";
  save_network(e.net, path);
  CompiledNetwork loaded = load_network(path);
  EXPECT_EQ(loaded.plans.size(), e.net.plans.size());
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buf;
  buf << "not a bswp file at all";
  EXPECT_THROW(load_network(buf), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  Env& e = env();
  std::stringstream buf;
  save_network(e.net, buf);
  const std::string full = buf.str();
  std::stringstream cut;
  cut << full.substr(0, full.size() / 2);
  EXPECT_THROW(load_network(cut), std::runtime_error);
}

TEST(Serialize, RejectsStructuralCorruptions) {
  // Unchecked, each mutation loads cleanly and then crashes the Executor
  // (input index out of range, zero pooling window), serves silently wrong
  // logits (pool index past the pool, unknown LUT order), or shifts or
  // dispatches on an out-of-range LUT geometry or variant.
  Env& e = env();
  const auto first_of = [&](PlanKind kind) -> std::size_t {
    for (std::size_t i = 0; i < e.net.plans.size(); ++i) {
      if (e.net.plans[i].kind == kind) return i;
    }
    ADD_FAILURE() << "no plan of the wanted kind";
    return 0;
  };
  const std::size_t maxpool = first_of(PlanKind::kMaxPool);
  const std::size_t bitserial = first_of(PlanKind::kConvBitSerial);
  const std::size_t conv1 = first_of(PlanKind::kConvBaseline);
  const std::size_t gap = first_of(PlanKind::kGlobalAvgPool);
  const std::size_t last = e.net.plans.size() - 1;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<const char*, std::function<void(CompiledNetwork&)>>> mutations = {
      {"input past the plan list",
       [&](CompiledNetwork& n) { n.plans[last].inputs[0] = static_cast<int>(n.plans.size()); }},
      {"input naming its own plan",
       [&](CompiledNetwork& n) { n.plans[last].inputs[0] = static_cast<int>(last); }},
      {"negative input", [&](CompiledNetwork& n) { n.plans[last].inputs[0] = -1; }},
      {"maxpool pool_k = 0", [&](CompiledNetwork& n) { n.plans[maxpool].pool_k = 0; }},
      {"maxpool pool_stride = 0", [&](CompiledNetwork& n) { n.plans[maxpool].pool_stride = 0; }},
      {"packed indices = 255",
       [&](CompiledNetwork& n) {
         for (uint8_t& ix : n.plans[bitserial].indices.idx) ix = 255;
       }},
      {"lut.order = 7", [](CompiledNetwork& n) { n.lut.order = static_cast<pool::LutOrder>(7); }},
      // A shift past int's width in DotLut::num_bit_vectors() (UB, caught by
      // the UBSan job) unless rejected before the LUT size check.
      {"lut.group_size = 31", [](CompiledNetwork& n) { n.lut.group_size = 31; }},
      // A consistent LUT of 257 pool vectors: uint8 indices cannot address
      // it, so no compiled network has one.
      {"lut.pool_size = 257",
       [](CompiledNetwork& n) {
         n.lut.pool_size = 257;
         n.lut.entries.assign(static_cast<std::size_t>(n.lut.num_bit_vectors()) * 257, 0);
       }},
      {"bit-serial variant = 9",
       [&](CompiledNetwork& n) {
         n.plans[bitserial].variant = static_cast<kernels::BitSerialVariant>(9);
       }},
      // Conv spec fields the byte sweep of a pooled container found writing
      // out of bounds (out_ch, pad) or hanging (groups), then their
      // neighbours. Each must disagree with the plan's own dims or its
      // input's.
      {"conv out_ch = 247", [&](CompiledNetwork& n) { n.plans[conv1].spec.out_ch = 247; }},
      {"conv out_ch = 65288", [&](CompiledNetwork& n) { n.plans[conv1].spec.out_ch = 65288; }},
      {"conv pad = 254", [&](CompiledNetwork& n) { n.plans[conv1].spec.pad = 254; }},
      {"conv pad = -1", [&](CompiledNetwork& n) { n.plans[conv1].spec.pad = -1; }},
      {"conv groups = 16711681",
       [&](CompiledNetwork& n) { n.plans[conv1].spec.groups = 16711681; }},
      {"conv groups = 0", [&](CompiledNetwork& n) { n.plans[conv1].spec.groups = 0; }},
      {"conv kh = 0", [&](CompiledNetwork& n) { n.plans[conv1].spec.kh = 0; }},
      {"conv kw = 0", [&](CompiledNetwork& n) { n.plans[bitserial].spec.kw = 0; }},
      {"conv stride = 0", [&](CompiledNetwork& n) { n.plans[bitserial].spec.stride = 0; }},
      {"conv in_ch + 1", [&](CompiledNetwork& n) { ++n.plans[bitserial].spec.in_ch; }},
      {"conv out_chw[1] + 1", [&](CompiledNetwork& n) { ++n.plans[conv1].out_chw[1]; }},
      {"conv out_chw[2] - 1", [&](CompiledNetwork& n) { --n.plans[bitserial].out_chw[2]; }},
      // Requant state the epilogues would misread: a short vector is read
      // past its end (8 lanes at a time on the SIMD lane), a zero or
      // non-finite scale divides into NaN/inf, a width outside [1, 16]
      // shifts past the int16 codes, and a zero point past 2^16 breaks the
      // saturation bound.
      {"conv rq.scale one short", [&](CompiledNetwork& n) { n.plans[conv1].rq.scale.pop_back(); }},
      {"bit-serial rq.bias one long",
       [&](CompiledNetwork& n) { n.plans[bitserial].rq.bias.push_back(0.0f); }},
      {"linear rq.scale empty", [&](CompiledNetwork& n) { n.plans[last].rq.scale.clear(); }},
      {"gap rq.bias one short", [&](CompiledNetwork& n) { n.plans[gap].rq.bias.pop_back(); }},
      {"binary conv rq.scale one short",
       [&](CompiledNetwork& n) {
         n.plans[conv1].kind = PlanKind::kConvBinary;
         n.plans[conv1].rq.scale.pop_back();
       }},
      {"rq.scale NaN", [&](CompiledNetwork& n) { n.plans[bitserial].rq.scale[0] = nan; }},
      {"rq.bias -inf", [&](CompiledNetwork& n) { n.plans[conv1].rq.bias[1] = -inf; }},
      {"rq.out.scale = 0", [&](CompiledNetwork& n) { n.plans[bitserial].rq.out.scale = 0.0f; }},
      {"rq.out.scale = -1", [&](CompiledNetwork& n) { n.plans[conv1].rq.out.scale = -1.0f; }},
      {"rq.out.scale = inf", [&](CompiledNetwork& n) { n.plans[gap].rq.out.scale = inf; }},
      {"out.scale NaN", [&](CompiledNetwork& n) { n.plans[0].out.scale = nan; }},
      {"rq.out.bits = 0", [&](CompiledNetwork& n) { n.plans[bitserial].rq.out.bits = 0; }},
      {"rq.out.bits = 17", [&](CompiledNetwork& n) { n.plans[last].rq.out.bits = 17; }},
      {"out.bits = 0", [&](CompiledNetwork& n) { n.plans[maxpool].out.bits = 0; }},
      {"out.bits = 17", [&](CompiledNetwork& n) { n.plans[conv1].out.bits = 17; }},
      {"rq.out.zero_point = 2^16 + 1",
       [&](CompiledNetwork& n) { n.plans[conv1].rq.out.zero_point = (1 << 16) + 1; }},
      {"out.zero_point = -2^16 - 1",
       [&](CompiledNetwork& n) { n.plans[bitserial].out.zero_point = -(1 << 16) - 1; }},
  };
  for (const auto& [what, mutate] : mutations) {
    CompiledNetwork bad = e.net;
    mutate(bad);
    std::stringstream buf;
    save_network(bad, buf);
    EXPECT_THROW(load_network(buf), std::runtime_error) << what;
  }
  {
    // Control for the binary mutation: the kind change alone loads, so the
    // short vector is what the binary rule rejects.
    CompiledNetwork ok = e.net;
    ok.plans[conv1].kind = PlanKind::kConvBinary;
    std::stringstream buf;
    save_network(ok, buf);
    EXPECT_NO_THROW(load_network(buf));
  }

  // Length fields: a count that runs past the end of the container is
  // refused before anything is allocated for it. Unchecked, the flipped
  // high byte of the LUT entry count asks for about 17 GB (std::bad_alloc,
  // an ASan abort, or an OOM kill instead of a typed error).
  std::stringstream good;
  save_network(e.net, good);
  const std::string bytes = good.str();
  ASSERT_TRUE(e.net.has_lut);
  // magic, version, act_bits, input_scale (4 bytes each), has_lut (1), six
  // 4-byte LUT fields, then the uint64 entry count.
  const std::size_t lut_count_at = 4 * 4 + 1 + 6 * 4;
  // The entries, the uint32 plan count and the first plan's int32 kind come
  // before that plan's uint32 name length.
  const std::size_t name_len_at =
      lut_count_at + 8 + e.net.lut.entries.size() * sizeof(int32_t) + 4 + 4;
  uint64_t lut_count = 0;
  uint32_t name_len = 0;
  std::memcpy(&lut_count, bytes.data() + lut_count_at, sizeof(lut_count));
  std::memcpy(&name_len, bytes.data() + name_len_at, sizeof(name_len));
  ASSERT_EQ(lut_count, e.net.lut.entries.size());
  ASSERT_EQ(name_len, e.net.plans[0].name.size());
  const std::vector<std::tuple<const char*, std::size_t, char>> length_flips = {
      {"LUT entry count + 0xFF000000", lut_count_at + 3, static_cast<char>(0xFF)},
      {"plan name length + 0x0F0000", name_len_at + 2, static_cast<char>(0x0F)},
  };
  for (const auto& [what, at, value] : length_flips) {
    std::string bad = bytes;
    bad[at] = value;
    std::stringstream buf(bad);
    EXPECT_THROW(load_network(buf), std::runtime_error) << what;
  }
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_network("/tmp/definitely_not_here_bswp.bin"), std::runtime_error);
}

TEST(ExportCHeader, EmitsArraysAndCountsFlash) {
  Env& e = env();
  const std::string path = "/tmp/bswp_test_net.h";
  const std::size_t bytes = export_c_header(e.net, path, "mynet");
  EXPECT_GT(bytes, e.net.lut.storage_bytes());  // at least the LUT
  std::ifstream is(path);
  std::stringstream content;
  content << is.rdbuf();
  const std::string s = content.str();
  EXPECT_NE(s.find("mynet_lut"), std::string::npos);
  EXPECT_NE(s.find("_indices"), std::string::npos);
  EXPECT_NE(s.find("_weights"), std::string::npos);  // first conv stays int8
  EXPECT_NE(s.find("#include <stdint.h>"), std::string::npos);
  std::remove(path.c_str());
}

// --- exhaustive round-trip coverage -----------------------------------------

void expect_networks_equal(const CompiledNetwork& a, const CompiledNetwork& b) {
  ASSERT_EQ(a.plans.size(), b.plans.size());
  EXPECT_EQ(a.act_bits, b.act_bits);
  EXPECT_EQ(a.input_scale, b.input_scale);
  EXPECT_EQ(a.has_lut, b.has_lut);
  EXPECT_EQ(a.lut.entries, b.lut.entries);
  EXPECT_EQ(a.lut.bitwidth, b.lut.bitwidth);
  EXPECT_EQ(a.lut.group_size, b.lut.group_size);
  for (std::size_t i = 0; i < a.plans.size(); ++i) {
    const LayerPlan& p = a.plans[i];
    const LayerPlan& q = b.plans[i];
    EXPECT_EQ(p.kind, q.kind) << i;
    EXPECT_EQ(p.name, q.name) << i;
    EXPECT_EQ(p.inputs, q.inputs) << i;
    EXPECT_EQ(p.variant, q.variant) << i;
    EXPECT_EQ(p.qweights.data, q.qweights.data) << i;
    EXPECT_EQ(p.qweights.scale, q.qweights.scale) << i;
    EXPECT_EQ(p.indices.idx, q.indices.idx) << i;
    EXPECT_EQ(p.rq.scale, q.rq.scale) << i;
    EXPECT_EQ(p.rq.bias, q.rq.bias) << i;
    EXPECT_EQ(p.rq.out.bits, q.rq.out.bits) << i;
    EXPECT_EQ(p.out.scale, q.out.scale) << i;
    EXPECT_EQ(p.out.zero_point, q.out.zero_point) << i;
    EXPECT_EQ(p.out.bits, q.out.bits) << i;
    EXPECT_EQ(p.out.is_signed, q.out.is_signed) << i;
    EXPECT_EQ(p.out_chw, q.out_chw) << i;
  }
}

CompiledNetwork roundtrip(const CompiledNetwork& net) {
  std::stringstream buf;
  save_network(net, buf);
  return load_network(buf);
}

class ActBitsRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ActBitsRoundTrip, BitIdenticalAcrossActBitwidths) {
  Env& e = env();
  CompileOptions opt;
  opt.act_bits = GetParam();
  quant::CalibrateOptions qo;
  qo.num_samples = 16;
  qo.act_bits = GetParam();
  nn::Graph g = e.graph;
  quant::CalibrationResult cal = quant::calibrate(g, *e.cal_data(), qo);
  CompiledNetwork net = compile(g, &e.pooled, cal, opt);
  CompiledNetwork loaded = roundtrip(net);
  expect_networks_equal(net, loaded);
  EXPECT_EQ(run(loaded, e.sample).data, run(net, e.sample).data);
  // The classifier keeps its 16-bit signed logits plan through the container.
  EXPECT_EQ(loaded.plans.back().out.bits, 16);
  EXPECT_TRUE(loaded.plans.back().out.is_signed);
}

INSTANTIATE_TEST_SUITE_P(TwoFourEight, ActBitsRoundTrip, ::testing::Values(2, 4, 8));

TEST(Serialize, SixteenBitActivationsAreRejectedAtCompileTime) {
  // 16-bit activations exist only on the classifier output; the engine's
  // activation path is 1..8 bits and compile() enforces it.
  Env& e = env();
  CompileOptions opt;
  opt.act_bits = 16;
  quant::CalibrateOptions qo;
  qo.num_samples = 8;
  nn::Graph g = e.graph;
  quant::CalibrationResult cal = quant::calibrate(g, *e.cal_data(), qo);
  EXPECT_THROW(compile(g, &e.pooled, cal, opt), std::invalid_argument);
}

class VariantRoundTrip : public ::testing::TestWithParam<kernels::BitSerialVariant> {};

TEST_P(VariantRoundTrip, EveryBitSerialVariantRoundTrips) {
  Env& e = env();
  CompileOptions opt;
  opt.force_variant = true;
  opt.forced_variant = GetParam();
  quant::CalibrateOptions qo;
  qo.num_samples = 16;
  nn::Graph g = e.graph;
  quant::CalibrationResult cal = quant::calibrate(g, *e.cal_data(), qo);
  CompiledNetwork net = compile(g, &e.pooled, cal, opt);
  CompiledNetwork loaded = roundtrip(net);
  expect_networks_equal(net, loaded);
  for (const LayerPlan& p : loaded.plans) {
    if (p.kind == PlanKind::kConvBitSerial) {
      EXPECT_EQ(p.variant, GetParam());
    }
  }
  EXPECT_EQ(run(loaded, e.sample).data, run(net, e.sample).data);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantRoundTrip,
                         ::testing::Values(kernels::BitSerialVariant::kNaive,
                                           kernels::BitSerialVariant::kInputReuse,
                                           kernels::BitSerialVariant::kCached,
                                           kernels::BitSerialVariant::kCachedPrecompute,
                                           kernels::BitSerialVariant::kCachedMemoize));

TEST(Serialize, EveryPlanKindRoundTrips) {
  // A second topology covering the plan kinds Env lacks: residual add,
  // standalone relu, flatten, and a bit-serial (pooled) linear layer. The
  // first conv (4 input channels, not a multiple of G=8) stays baseline so
  // the bit-serial layers see unsigned activations.
  nn::Graph g;
  int x = g.input(4, 8, 8);
  int c1 = g.conv2d(x, 16, 3, 1, 1);
  c1 = g.relu(c1);
  int c2 = g.conv2d(c1, 16, 3, 1, 1);
  int s = g.add(c1, c2);
  s = g.relu(s);
  s = g.maxpool(s, 2, 2);
  s = g.relu(s);  // after maxpool: compiles to a standalone relu plan
  s = g.flatten(s);
  g.linear(s, 6);
  Rng rng(21);
  g.init_weights(rng);

  quant::CalibrationResult cal;
  cal.input_abs_max = 1.0f;
  for (int i = 0; i < g.num_nodes(); ++i) {
    cal.node_range[i] = 1.0f;
    cal.node_abs_range[i] = 1.0f;
  }
  pool::CodecOptions co;
  co.pool_size = 16;
  co.kmeans_iters = 5;
  co.pool_fc = true;  // footnote-1 configuration: pooled FC -> kLinearBitSerial
  pool::PooledNetwork pooled = pool::build_weight_pool(g, co);
  pool::reconstruct_weights(g, pooled);
  CompiledNetwork net = compile(g, &pooled, cal, CompileOptions{});

  EXPECT_GT(net.count_kind(PlanKind::kConvBaseline), 0);
  EXPECT_GT(net.count_kind(PlanKind::kConvBitSerial), 0);
  EXPECT_GT(net.count_kind(PlanKind::kLinearBitSerial), 0);
  EXPECT_GT(net.count_kind(PlanKind::kAdd), 0);
  EXPECT_GT(net.count_kind(PlanKind::kRelu), 0);
  EXPECT_GT(net.count_kind(PlanKind::kFlatten), 0);
  EXPECT_GT(net.count_kind(PlanKind::kMaxPool), 0);

  CompiledNetwork loaded = roundtrip(net);
  expect_networks_equal(net, loaded);
  Tensor img({4, 8, 8}, 0.4f);
  EXPECT_EQ(run(loaded, img).data, run(net, img).data);
}

TEST(Serialize, RejectsTruncationAtEveryPrefix) {
  Env& e = env();
  std::stringstream buf;
  save_network(e.net, buf);
  const std::string full = buf.str();
  for (double frac : {0.05, 0.25, 0.5, 0.75, 0.95, 0.999}) {
    std::stringstream cut;
    cut << full.substr(0, static_cast<std::size_t>(static_cast<double>(full.size()) * frac));
    EXPECT_THROW(load_network(cut), std::runtime_error) << "fraction " << frac;
  }
}

TEST(ExportCHeader, FlashBytesTrackFootprintWeights) {
  // The exported arrays cover LUT + indices + weights; the footprint model
  // additionally counts requant constants at 8 bytes/channel, the header
  // emits them as two float arrays (same 8 bytes/channel).
  Env& e = env();
  const std::string path = "/tmp/bswp_test_net2.h";
  const std::size_t bytes = export_c_header(e.net, path, "n");
  EXPECT_EQ(bytes, footprint(e.net).flash_bytes);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bswp::runtime
