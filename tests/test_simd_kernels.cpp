// SIMD host-lane tests: the kernels under src/kernels/simd/ must be
// byte-identical to their scalar reference kernels — same outputs AND same
// (MCU-reference) cost counters — on every geometry, and the compile
// pipeline must select / force / serialize lanes correctly. The kernel-level
// identity tests run on every build (the portable `#pragma omp simd` path is
// always compiled); registry and lane-selection tests skip when the SIMD
// family is compiled out (BSWP_SIMD=OFF).
#include <algorithm>
#include <functional>
#include <sstream>

#include <gtest/gtest.h>

#include "api/bswp.h"
#include "binary/binarized.h"
#include "core/rng.h"
#include "kernels/baseline_conv.h"
#include "kernels/bitserial_conv.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "models/zoo.h"
#include "runtime/executor.h"
#include "runtime/kernel_backend.h"
#include "runtime/serialize.h"

namespace bswp {
namespace {

using kernels::BitSerialVariant;
using kernels::QView;
namespace simd = kernels::simd;

constexpr BitSerialVariant kAllVariants[] = {
    BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
    BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize};

void expect_counters_equal(const sim::CostCounter& a, const sim::CostCounter& b,
                           const std::string& what) {
  for (int e = 0; e < sim::kNumEvents; ++e) {
    EXPECT_EQ(a.count(static_cast<sim::Event>(e)), b.count(static_cast<sim::Event>(e)))
        << what << ": event " << e;
  }
}

// ---------------------------------------------------------------------------
// Kernel-level bit identity
// ---------------------------------------------------------------------------
//
// Every kernel family has one batch-strided core. Each kept core (scalar and
// SIMD) runs at every batch size below and must match the scalar core run
// one image at a time (batch 1): the same bytes per image, and counters that
// are exactly the sum of the per-image counters. 7/8/9/16 straddle the SIMD
// bit-serial core's 8-image unpack tile; 1 takes its single-image layout.

constexpr int kBatchSizes[] = {1, 2, 7, 8, 9, 16};

/// A batch-strided core: (in, in_stride, batch, out, out_stride, scratch,
/// counter), plus the scratch bound it advertises for a batch size. The
/// checker runs it on an arena of exactly that size, so an under-reported
/// bound throws.
struct BatchCore {
  std::function<void(const QView&, std::size_t, int, QView&, std::size_t, ScratchArena&,
                     sim::CostCounter*)>
      run;
  std::function<std::size_t(int)> scratch_bytes;
};

/// Runs `scalar` once per image (the reference), then `scalar` and `simd` on
/// whole batches. Images are copies of `proto` redrawn by `fill` and laid out
/// with a gap after each one, so a core that ignores a stride reads or
/// writes the wrong slot; the output gaps must stay untouched.
void expect_batches_match_scalar(const QTensor& proto, std::size_t out_elems,
                                 const std::function<void(QTensor&)>& fill,
                                 const BatchCore& scalar, const BatchCore& simd_core,
                                 const std::string& what) {
  constexpr int16_t kSentinel = 0x7777;
  const std::size_t in_elems = proto.size();
  const std::size_t in_stride = in_elems + 3, out_stride = out_elems + 5;
  for (int batch : kBatchSizes) {
    const std::string at = what + " batch " + std::to_string(batch);
    std::vector<QTensor> images(static_cast<std::size_t>(batch), proto);
    std::vector<int16_t> in_buf(static_cast<std::size_t>(batch) * in_stride, 0);
    std::vector<std::vector<int16_t>> ref(static_cast<std::size_t>(batch));
    sim::CostCounter ref_counter;
    for (int b = 0; b < batch; ++b) {
      QTensor& img = images[static_cast<std::size_t>(b)];
      fill(img);
      std::copy(img.data.begin(), img.data.end(),
                in_buf.begin() + static_cast<std::ptrdiff_t>(b * in_stride));
      std::vector<int16_t>& r = ref[static_cast<std::size_t>(b)];
      r.assign(out_elems, 0);
      QView out;
      out.data = r.data();
      ScratchArena scratch(scalar.scratch_bytes(1));
      scalar.run(QView::of(img), in_elems, 1, out, out_elems, scratch, &ref_counter);
    }
    QView in = QView::of(proto);
    in.data = in_buf.data();
    for (const BatchCore* core : {&scalar, &simd_core}) {
      const std::string who = at + (core == &scalar ? " scalar" : " simd");
      std::vector<int16_t> out_buf(static_cast<std::size_t>(batch) * out_stride, kSentinel);
      QView out;
      out.data = out_buf.data();
      ScratchArena scratch(core->scratch_bytes(batch));
      sim::CostCounter counter;
      core->run(in, in_stride, batch, out, out_stride, scratch, &counter);
      for (int b = 0; b < batch; ++b) {
        const auto first = out_buf.begin() + static_cast<std::ptrdiff_t>(b * out_stride);
        EXPECT_TRUE(std::equal(first, first + static_cast<std::ptrdiff_t>(out_elems),
                               ref[static_cast<std::size_t>(b)].begin()))
            << who << " image " << b;
        EXPECT_TRUE(std::all_of(first + static_cast<std::ptrdiff_t>(out_elems),
                                first + static_cast<std::ptrdiff_t>(out_stride),
                                [](int16_t v) { return v == kSentinel; }))
            << who << " wrote past image " << b;
      }
      expect_counters_equal(ref_counter, counter, who);
    }
  }
}

struct ConvCase {
  int in_ch, out_ch, kh, kw, stride, pad, groups, h, w, in_zp;
};

TEST(SimdKernels, ConvBitIdenticalAcrossGeometriesAndBatches) {
  // Geometries chosen to hit every tail: odd filter counts (4-wide register
  // tile remainder), K % 16 != 0 (16-lane dot tail), groups, strides,
  // padding, 1x1, and a nonzero input zero point.
  const ConvCase cases[] = {
      {8, 5, 3, 3, 1, 1, 1, 9, 7, 0},      // K=72, 5 filters -> dot1 tail
      {24, 16, 3, 3, 2, 0, 1, 11, 11, 3},  // stride 2, offset input
      {12, 8, 3, 3, 1, 1, 4, 8, 8, 0},     // grouped, cg=3 -> K=27
      {16, 16, 1, 1, 1, 0, 1, 6, 6, 0},    // 1x1, K=16 exact
      {6, 4, 5, 5, 1, 2, 2, 12, 10, 1},    // 5x5, cg=3 -> K=75
  };
  Rng rng(11);
  for (const ConvCase& cc : cases) {
    const nn::ConvSpec spec{cc.in_ch, cc.out_ch, cc.kh, cc.kw, cc.stride, cc.pad, cc.groups};
    QTensor proto({1, cc.in_ch, cc.h, cc.w}, 8, false);
    proto.zero_point = cc.in_zp;
    QTensor weights(spec.weight_shape(), 8, true);
    for (auto& v : weights.data)
      v = static_cast<int16_t>(-127 + static_cast<int>(rng.uniform_int(255)));
    const kernels::Requant rq =
        kernels::Requant::uniform(cc.out_ch, 1e-4f, {}, 0.01f, 8, false, false);

    const BatchCore scalar{[&](const QView& in, std::size_t is, int n, QView& out,
                               std::size_t os, ScratchArena&, sim::CostCounter* c) {
                             kernels::baseline_conv2d(in, is, n, weights, spec, rq, out, os, c);
                           },
                           [](int) { return std::size_t{0}; }};
    const BatchCore simd_core{[&](const QView& in, std::size_t is, int n, QView& out,
                                  std::size_t os, ScratchArena& scratch, sim::CostCounter* c) {
                                simd::simd_conv2d(in, is, n, weights, spec, rq, out, os, scratch,
                                                  c);
                              },
                              [&](int n) { return simd::simd_conv_scratch_bytes(spec, n); }};
    const std::size_t out_elems =
        static_cast<std::size_t>(cc.out_ch) * spec.out_h(cc.h) * spec.out_w(cc.w);
    expect_batches_match_scalar(
        proto, out_elems,
        [&](QTensor& x) {
          for (auto& v : x.data) v = static_cast<int16_t>(rng.uniform_int(256));
        },
        scalar, simd_core,
        "conv in_ch=" + std::to_string(cc.in_ch) + " out_ch=" + std::to_string(cc.out_ch) +
            " groups=" + std::to_string(cc.groups));
  }
}

TEST(SimdKernels, LinearBitIdenticalIncludingOddTailsAndBatches) {
  Rng rng(12);
  for (const auto& [fin, fout] : {std::pair{16, 4}, {37, 7}, {128, 10}, {5, 3}}) {
    QTensor proto({1, fin}, 8, false);
    proto.zero_point = 2;
    QTensor w({fout, fin}, 8, true);
    for (auto& v : w.data) v = static_cast<int16_t>(-127 + static_cast<int>(rng.uniform_int(255)));
    const kernels::Requant rq = kernels::Requant::uniform(fout, 1e-4f, {}, 0.01f, 8, true, false);

    const BatchCore scalar{[&](const QView& in, std::size_t is, int n, QView& out,
                               std::size_t os, ScratchArena&, sim::CostCounter* c) {
                             kernels::baseline_linear(in, is, n, w, rq, out, os, c);
                           },
                           [](int) { return std::size_t{0}; }};
    const BatchCore simd_core{[&](const QView& in, std::size_t is, int n, QView& out,
                                  std::size_t os, ScratchArena& scratch, sim::CostCounter* c) {
                                simd::simd_linear(in, is, n, w, rq, out, os, scratch, c);
                              },
                              [&](int n) { return simd::simd_linear_scratch_bytes(fin, n); }};
    expect_batches_match_scalar(
        proto, static_cast<std::size_t>(fout),
        [&](QTensor& x) {
          for (auto& v : x.data) v = static_cast<int16_t>(rng.uniform_int(256));
        },
        scalar, simd_core, "linear " + std::to_string(fin) + "x" + std::to_string(fout));
  }
}

/// Random pooled layer fixture (mirrors the bit-serial kernel tests).
struct PooledFixture {
  nn::ConvSpec spec;
  kernels::PackedIndices indices;
  pool::DotLut lut;
  QTensor input;
  kernels::Requant rq;

  PooledFixture(int channels, int filters, int act_bits, pool::LutOrder order, uint64_t seed) {
    Rng rng(seed);
    spec = nn::ConvSpec{channels, filters, 3, 3, 1, 1, 1};
    pool::WeightPool wp;
    wp.group_size = 8;
    wp.vectors = Tensor({24, 8});  // pool size 24: not a multiple of 8 lanes
    rng.fill_normal(wp.vectors, 0.3f);
    pool::LutOptions lo;
    lo.order = order;
    lut = pool::build_lut(wp, lo);
    pool::PooledLayer pl;
    pl.out_ch = filters;
    pl.channel_groups = channels / 8;
    pl.kh = pl.kw = 3;
    pl.indices.resize(static_cast<std::size_t>(filters) * pl.channel_groups * 9);
    for (auto& idx : pl.indices) idx = static_cast<uint16_t>(rng.uniform_int(24));
    indices = kernels::PackedIndices::pack(pl);
    input = QTensor({1, channels, 7, 6}, act_bits, false);
    input.scale = 0.05f;
    for (auto& v : input.data) v = static_cast<int16_t>(rng.uniform_int(1u << act_bits));
    rq = kernels::Requant::uniform(filters, 1e-4f, {}, 0.01f, 8, false, true);
  }
};

TEST(SimdKernels, BitSerialConvIdenticalForEveryVariantOrderBitwidthAndBatch) {
  Rng rng(22);
  for (pool::LutOrder order : {pool::LutOrder::kInputOriented, pool::LutOrder::kWeightOriented}) {
    for (int act_bits : {1, 4, 8}) {
      // 13 filters: not a multiple of the 8-channel gather step.
      PooledFixture f(16, 13, act_bits, order, 21);
      const std::size_t out_elems = 13u * f.spec.out_h(7) * f.spec.out_w(6);
      for (BitSerialVariant v : kAllVariants) {
        const BatchCore scalar{
            [&](const QView& in, std::size_t is, int n, QView& out, std::size_t os,
                ScratchArena& scratch, sim::CostCounter* c) {
              kernels::bitserial_conv2d(in, is, n, f.indices, f.lut, f.spec, f.rq, v, out, os,
                                        scratch, c);
            },
            [&](int n) { return kernels::bitserial_host_scratch_bytes(13, f.lut.pool_size, 8, n); }};
        const BatchCore simd_core{
            [&](const QView& in, std::size_t is, int n, QView& out, std::size_t os,
                ScratchArena& scratch, sim::CostCounter* c) {
              simd::simd_bitserial_conv2d(in, is, n, f.indices, f.lut, f.spec, f.rq, v, out, os,
                                          scratch, c);
            },
            [&](int n) {
              return simd::simd_bitserial_conv_scratch_bytes(f.spec, 7, 6, f.lut.pool_size, 8, n);
            }};
        expect_batches_match_scalar(
            f.input, out_elems,
            [&](QTensor& x) {
              for (auto& e : x.data) e = static_cast<int16_t>(rng.uniform_int(1u << act_bits));
            },
            scalar, simd_core,
            std::string("bitserial conv variant ") + kernels::variant_name(v) + " bits " +
                std::to_string(act_bits));
      }
    }
  }
}

TEST(SimdKernels, BitSerialLinearIdenticalAcrossBatches) {
  Rng rng(31);
  pool::WeightPool wp;
  wp.group_size = 8;
  wp.vectors = Tensor({24, 8});
  rng.fill_normal(wp.vectors, 0.3f);
  for (pool::LutOrder order : {pool::LutOrder::kInputOriented, pool::LutOrder::kWeightOriented}) {
    pool::LutOptions lo;
    lo.order = order;
    const pool::DotLut lut = pool::build_lut(wp, lo);
    const int fin = 40, fout = 11;  // 5 groups, odd filter count
    pool::PooledLayer pl;
    pl.out_ch = fout;
    pl.channel_groups = fin / 8;
    pl.kh = pl.kw = 1;
    pl.indices.resize(static_cast<std::size_t>(fout) * pl.channel_groups);
    for (auto& idx : pl.indices) idx = static_cast<uint16_t>(rng.uniform_int(24));
    const kernels::PackedIndices indices = kernels::PackedIndices::pack(pl);
    QTensor proto({1, fin}, 4, false);
    proto.scale = 0.05f;
    const kernels::Requant rq = kernels::Requant::uniform(fout, 1e-4f, {}, 0.01f, 8, true, false);

    for (BitSerialVariant v : kAllVariants) {
      const BatchCore scalar{
          [&](const QView& in, std::size_t is, int n, QView& out, std::size_t os,
              ScratchArena& scratch, sim::CostCounter* c) {
            kernels::bitserial_linear(in, is, n, indices, lut, rq, v, out, os, scratch, c);
          },
          [&](int n) { return kernels::bitserial_host_scratch_bytes(fout, lut.pool_size, 8, n); }};
      const BatchCore simd_core{
          [&](const QView& in, std::size_t is, int n, QView& out, std::size_t os,
              ScratchArena& scratch, sim::CostCounter* c) {
            simd::simd_bitserial_linear(in, is, n, indices, lut, rq, v, out, os, scratch, c);
          },
          [&](int n) { return simd::simd_bitserial_linear_scratch_bytes(fout, lut.pool_size, n); }};
      expect_batches_match_scalar(
          proto, static_cast<std::size_t>(fout),
          [&](QTensor& x) {
            for (auto& e : x.data) e = static_cast<int16_t>(rng.uniform_int(16));
          },
          scalar, simd_core, std::string("bitserial linear ") + kernels::variant_name(v));
    }
  }
}

TEST(SimdKernels, XnorCountsIdenticalIncludingOddWordCounts) {
  Rng rng(41);
  // in_ch 96 -> 3 words (odd trailing word for the 64-bit pairing); in_ch 40
  // -> 2 words with a 8-lane tail mask; in_ch 24 -> 1 word, tail mask only.
  for (int in_ch : {96, 40, 24}) {
    const nn::ConvSpec spec{in_ch, 9, 3, 3, 1, 1, 1};
    const int h = 7, w = 8;
    const int words = (in_ch + 31) / 32;
    std::vector<uint32_t> in_bits(static_cast<std::size_t>(h) * w * words);
    std::vector<uint32_t> w_bits(static_cast<std::size_t>(spec.out_ch) * 9 * words);
    for (auto& v : in_bits) v = rng.uniform_int(0xffffffffu);
    for (auto& v : w_bits) v = rng.uniform_int(0xffffffffu);
    const int tail = in_ch % 32;
    if (tail != 0) {
      const uint32_t mask = (1u << tail) - 1;
      for (std::size_t i = words - 1; i < in_bits.size(); i += words) in_bits[i] &= mask;
      for (std::size_t i = words - 1; i < w_bits.size(); i += words) w_bits[i] &= mask;
    }
    const int oh = spec.out_h(h), ow = spec.out_w(w);
    std::vector<int32_t> counts_s(static_cast<std::size_t>(spec.out_ch) * oh * ow);
    std::vector<int32_t> counts_v(counts_s.size());
    sim::CostCounter cs, cv;
    binary::xnor_conv2d_counts(in_bits.data(), in_ch, h, w, w_bits.data(), spec, counts_s.data(),
                               &cs);
    simd::simd_xnor_conv2d_counts(in_bits.data(), in_ch, h, w, w_bits.data(), spec,
                                  counts_v.data(), &cv);
    EXPECT_EQ(counts_s, counts_v) << "in_ch=" << in_ch;
    expect_counters_equal(cs, cv, "xnor in_ch=" + std::to_string(in_ch));
  }
}

// ---------------------------------------------------------------------------
// Registry keying and fallback
// ---------------------------------------------------------------------------

TEST(SimdKernels, RegistryResolvesSimdKeysAndFallsBack) {
  using runtime::kAnyVariant;
  using runtime::kSimdKeyOffset;
  using runtime::PlanKind;
  const runtime::KernelRegistry& reg = runtime::KernelRegistry::instance();

  const runtime::KernelBackend* scalar = reg.find(PlanKind::kConvBaseline, kAnyVariant);
  ASSERT_NE(scalar, nullptr);
  const runtime::KernelBackend* vec = reg.find(PlanKind::kConvBaseline, kSimdKeyOffset);
  ASSERT_NE(vec, nullptr);
  if (simd::compiled()) {
    EXPECT_STREQ(vec->name(), "simd/conv");
    EXPECT_STREQ(reg.find(PlanKind::kLinearBaseline, kSimdKeyOffset)->name(), "simd/linear");
    EXPECT_STREQ(reg.find(PlanKind::kConvBinary, kSimdKeyOffset)->name(), "simd/xnor-conv");
    for (BitSerialVariant v : kAllVariants) {
      const int key = kSimdKeyOffset + static_cast<int>(v);
      EXPECT_STREQ(reg.find(PlanKind::kConvBitSerial, key)->name(), "simd/bitserial-conv");
      EXPECT_STREQ(reg.find(PlanKind::kLinearBitSerial, key)->name(), "simd/bitserial-linear");
    }
  } else {
    // Compiled out: a simd key must gracefully resolve to the scalar family.
    EXPECT_EQ(vec, scalar);
  }
  // A kind with no simd registration falls back to its wildcard backend.
  EXPECT_EQ(reg.find(PlanKind::kMaxPool, kSimdKeyOffset),
            reg.find(PlanKind::kMaxPool, kAnyVariant));
}

TEST(SimdKernels, BackendVariantKeyEncodesLane) {
  using runtime::backend_variant_key;
  runtime::LayerPlan p;
  p.kind = runtime::PlanKind::kConvBaseline;
  EXPECT_EQ(backend_variant_key(p), runtime::kAnyVariant);
  p.lane = runtime::HostLane::kSimd;
  EXPECT_EQ(backend_variant_key(p), runtime::kSimdKeyOffset);
  p.kind = runtime::PlanKind::kConvBitSerial;
  p.variant = BitSerialVariant::kCachedPrecompute;
  EXPECT_EQ(backend_variant_key(p),
            runtime::kSimdKeyOffset + static_cast<int>(BitSerialVariant::kCachedPrecompute));
  p.lane = runtime::HostLane::kScalar;
  EXPECT_EQ(backend_variant_key(p), static_cast<int>(BitSerialVariant::kCachedPrecompute));
}

// ---------------------------------------------------------------------------
// Pipeline lane selection, zoo-wide identity, serialization
// ---------------------------------------------------------------------------

/// Deterministic small deployment (golden-harness style).
struct ZooCase {
  nn::Graph graph;
  std::unique_ptr<data::Dataset> cal;
  Tensor image;
};

ZooCase make_case(const models::NamedModel& m, uint64_t seed) {
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
  c.image = Tensor({1, mo.in_channels, 16, 16});
  c.cal->sample(0, c.image.data());
  return c;
}

Deployment make_deployment(ZooCase& c) {
  pool::CodecOptions co;
  co.pool_size = 16;
  co.kmeans_iters = 5;
  co.max_cluster_vectors = 3000;
  quant::CalibrateOptions qo;
  qo.num_samples = 24;
  return Deployment::from(c.graph).with_pool(co).calibrate(*c.cal, qo);
}

TEST(SimdKernels, ZooLogitsBitIdenticalAcrossLanes) {
  uint64_t seed = 1234;
  for (const models::NamedModel& m : models::paper_models()) {
    ZooCase c = make_case(m, seed++);
    Deployment dep = make_deployment(c);
    for (int bits : {4, 8}) {
      Session scalar =
          dep.act_bits(bits).host_lanes(runtime::HostLaneSelect::kScalar).compile();
      Session vec = dep.host_lanes(runtime::HostLaneSelect::kSimd).compile();
      Session priced = dep.host_lanes(runtime::HostLaneSelect::kCostModel).compile();
      const QTensor want = scalar.run(c.image);
      EXPECT_EQ(want.data, vec.run(c.image).data) << m.name << " bits " << bits;
      EXPECT_EQ(want.data, priced.run(c.image).data) << m.name << " bits " << bits;
    }
  }
}

TEST(SimdKernels, ForcedLanesStampEveryComputePlan) {
  ZooCase c = make_case(models::paper_models()[0], 99);
  Deployment dep = make_deployment(c);
  Session scalar = dep.host_lanes(runtime::HostLaneSelect::kScalar).compile();
  for (const runtime::LayerPlan& p : scalar.network().plans) {
    EXPECT_EQ(p.lane, runtime::HostLane::kScalar) << p.name;
  }
  Session vec = dep.host_lanes(runtime::HostLaneSelect::kSimd).compile();
  for (const runtime::LayerPlan& p : vec.network().plans) {
    const bool compute = p.kind == runtime::PlanKind::kConvBaseline ||
                         p.kind == runtime::PlanKind::kLinearBaseline ||
                         p.kind == runtime::PlanKind::kConvBitSerial ||
                         p.kind == runtime::PlanKind::kLinearBitSerial;
    if (compute && simd::available()) {
      EXPECT_EQ(p.lane, runtime::HostLane::kSimd) << p.name;
    } else {
      EXPECT_EQ(p.lane, runtime::HostLane::kScalar) << p.name;
    }
  }
}

TEST(SimdKernels, CostModelLaneChoicesAreArgminAndReported) {
  ZooCase c = make_case(models::paper_models()[0], 100);
  Deployment dep = make_deployment(c);
  Session s = dep.host_lanes(runtime::HostLaneSelect::kCostModel).compile();
  const runtime::CompileReport& report = dep.compile_report();
  ASSERT_FALSE(report.lane_choices.empty());
  for (const runtime::LaneChoice& l : report.lane_choices) {
    if (!simd::available()) {
      EXPECT_EQ(l.lane, runtime::HostLane::kScalar) << l.layer;
      continue;
    }
    ASSERT_GT(l.simd_cycles, 0.0) << l.layer;
    ASSERT_GT(l.scalar_cycles, 0.0) << l.layer;
    EXPECT_EQ(l.lane == runtime::HostLane::kSimd, l.simd_cycles < l.scalar_cycles) << l.layer;
  }
  // The summary and registry attribution render the lanes.
  if (simd::available()) {
    EXPECT_NE(report.summary().find("host lane selection:"), std::string::npos);
    bool any_simd_line = false;
    for (const std::string& line : runtime::KernelRegistry::instance().describe(s.network())) {
      if (line.find("[simd]") != std::string::npos &&
          line.find("simd/") != std::string::npos) {
        any_simd_line = true;
      }
    }
    // At least one layer should price onto the SIMD lane on any host where
    // the family is compiled in (the int8 convs vectorize 16-wide).
    EXPECT_TRUE(any_simd_line);
  }
}

TEST(SimdKernels, SerializationRoundTripsLanes) {
  ZooCase c = make_case(models::paper_models()[0], 101);
  Deployment dep = make_deployment(c);
  Session s = dep.host_lanes(runtime::HostLaneSelect::kCostModel).compile();

  std::stringstream buf;
  runtime::save_network(s.network(), buf);
  const runtime::CompiledNetwork loaded = runtime::load_network(buf);
  ASSERT_EQ(loaded.plans.size(), s.network().plans.size());
  for (std::size_t i = 0; i < loaded.plans.size(); ++i) {
    EXPECT_EQ(loaded.plans[i].lane, s.network().plans[i].lane) << loaded.plans[i].name;
  }
  Session reloaded(loaded);
  EXPECT_EQ(s.run(c.image).data, reloaded.run(c.image).data);
}

}  // namespace
}  // namespace bswp
