// The SelectBackends cost model must never drift from the kernels it prices:
// for every variant and a battery of geometries (padding, stride, 1x1 and 5x5
// kernels, repeated pool indices), the closed-form estimate in sim/layer_cost
// must equal the CostCounter the real kernel produces — event for event.
#include "sim/layer_cost.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/rng.h"
#include "kernels/bitserial_conv.h"
#include "kernels/baseline_conv.h"
#include "kernels/simd/simd_kernels.h"

namespace bswp::sim {
namespace {

using kernels::BitSerialVariant;

constexpr BitSerialVariant kAllVariants[] = {
    BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
    BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize};

void expect_same_counts(const CostCounter& want, const CostCounter& got, const std::string& ctx) {
  for (int e = 0; e < kNumEvents; ++e) {
    EXPECT_EQ(want.count(static_cast<Event>(e)), got.count(static_cast<Event>(e)))
        << ctx << " diverges on event " << event_name(static_cast<Event>(e));
  }
}

struct Fixture {
  pool::DotLut lut;
  kernels::PackedIndices indices;
  kernels::Requant rq;

  Fixture(int pool_size, const nn::ConvSpec& spec, uint64_t seed) {
    Rng rng(seed);
    pool::WeightPool wp;
    wp.group_size = 8;
    wp.vectors = Tensor({pool_size, 8});
    rng.fill_normal(wp.vectors, 0.3f);
    lut = pool::build_lut(wp, pool::LutOptions{});
    pool::PooledLayer pl;
    pl.out_ch = spec.out_ch;
    pl.channel_groups = spec.in_ch / 8;
    pl.kh = spec.kh;
    pl.kw = spec.kw;
    pl.indices.resize(static_cast<std::size_t>(pl.out_ch) * pl.channel_groups * pl.kh * pl.kw);
    // Skewed draw so slices contain plenty of repeats (exercises memoization).
    for (auto& idx : pl.indices) {
      idx = static_cast<uint16_t>(rng.uniform_int(static_cast<uint32_t>(pool_size)) / 3);
    }
    indices = kernels::PackedIndices::pack(pl);
    rq = kernels::Requant::uniform(spec.out_ch, 1e-4f, {}, 0.01f, 8, false, true);
  }
};

QTensor random_acts(std::vector<int> shape, int bits, uint64_t seed) {
  Rng rng(seed);
  QTensor t(std::move(shape), bits, false);
  t.scale = 0.05f;
  for (auto& v : t.data) v = static_cast<int16_t>(rng.uniform_int(1u << bits));
  return t;
}

TEST(LayerCost, BitSerialConvMatchesKernelCounters) {
  const nn::ConvSpec specs[] = {
      {16, 24, 3, 3, 1, 1, 1},  // padded 3x3
      {8, 16, 1, 1, 1, 0, 1},   // pointwise
      {16, 12, 5, 5, 2, 2, 1},  // strided 5x5 with wide padding
      {24, 8, 3, 3, 1, 0, 1},   // valid-only 3x3
  };
  for (const auto& spec : specs) {
    for (int pool_size : {16, 64}) {
      Fixture f(pool_size, spec, 11);
      for (int bits : {1, 4, 8}) {
        QTensor in = random_acts({1, spec.in_ch, 9, 9}, bits, 77);
        for (BitSerialVariant v : kAllVariants) {
          CostCounter measured;
          kernels::bitserial_conv2d(in, f.indices, f.lut, spec, f.rq, v, &measured);
          const CostCounter predicted =
              bitserial_conv_cost(spec, 9, 9, bits, f.lut, f.indices, v);
          expect_same_counts(measured, predicted,
                             std::string("conv ") + kernels::variant_name(v) + " S=" +
                                 std::to_string(pool_size) + " M=" + std::to_string(bits) +
                                 " k=" + std::to_string(spec.kh) + " pad=" +
                                 std::to_string(spec.pad));
        }
      }
    }
  }
}

TEST(LayerCost, BitSerialLinearMatchesKernelCounters) {
  for (int fin : {16, 64}) {
    for (int fout : {10, 40}) {
      nn::ConvSpec spec{fin, fout, 1, 1, 1, 0, 1};
      Fixture f(32, spec, 23);
      for (int bits : {2, 8}) {
        QTensor in = random_acts({1, fin}, bits, 99);
        for (BitSerialVariant v : kAllVariants) {
          CostCounter measured;
          kernels::bitserial_linear(in, f.indices, f.lut, f.rq, v, &measured);
          const CostCounter predicted = bitserial_linear_cost(fin, bits, f.lut, f.indices, v);
          expect_same_counts(measured, predicted,
                             std::string("linear ") + kernels::variant_name(v) + " fin=" +
                                 std::to_string(fin) + " fout=" + std::to_string(fout));
        }
      }
    }
  }
}

TEST(LayerCost, BaselineConvMatchesKernelCounters) {
  const nn::ConvSpec specs[] = {
      {16, 24, 3, 3, 1, 1, 1},
      {12, 12, 3, 3, 1, 1, 12},  // depthwise
      {8, 16, 5, 5, 2, 0, 1},
  };
  Rng rng(5);
  for (const auto& spec : specs) {
    QTensor in = random_acts({1, spec.in_ch, 10, 10}, 8, 31);
    QTensor w(spec.weight_shape(), 8, true);
    for (auto& v : w.data) v = static_cast<int16_t>(-10 + static_cast<int>(rng.uniform_int(21)));
    kernels::Requant rq = kernels::Requant::uniform(spec.out_ch, 1e-4f, {}, 0.01f, 8, false, true);
    CostCounter measured;
    kernels::baseline_conv2d(in, w, spec, rq, &measured);
    expect_same_counts(measured, baseline_conv_cost(spec, 10, 10),
                       "baseline conv groups=" + std::to_string(spec.groups));
  }
}

TEST(LayerCost, BaselineLinearMatchesKernelCounters) {
  Rng rng(6);
  const int fin = 48, fout = 12;
  QTensor in = random_acts({1, fin}, 8, 41);
  QTensor w({fout, fin}, 8, true);
  for (auto& v : w.data) v = static_cast<int16_t>(-10 + static_cast<int>(rng.uniform_int(21)));
  kernels::Requant rq = kernels::Requant::uniform(fout, 1e-4f, {}, 0.01f, 16, true, false);
  CostCounter measured;
  kernels::baseline_linear(in, w, rq, &measured);
  expect_same_counts(measured, baseline_linear_cost(fin, fout), "baseline linear");
}

TEST(LayerCost, SimdBitSerialConvPriceBranchesOnTheKernelsLayerTablePredicate) {
  // The SIMD conv kernel runs its layer-table path exactly when
  // kernels::simd::simd_bitserial_uses_layer_table holds. That path has no
  // per-context pool precompute, so its modeled price cannot depend on the
  // pool size, while the pool-precompute path's (8 lanes or scalar per
  // pool vector) must. With every layer below both pool sizes the
  // predicate agrees for both, and the price must be pool-size invariant
  // exactly when it holds — across the 2^G row-add boundary, strides, 1x1
  // and 3x3 taps, input sizes and both LUT orders.
  Rng rng(7);
  int table = 0, precompute = 0;
  for (pool::LutOrder order : {pool::LutOrder::kInputOriented, pool::LutOrder::kWeightOriented}) {
    std::vector<pool::DotLut> luts;
    for (int pool_size : {64, 128}) {
      pool::WeightPool wp;
      wp.group_size = 8;
      wp.vectors = Tensor({pool_size, 8});
      rng.fill_normal(wp.vectors, 0.3f);
      pool::LutOptions lo;
      lo.order = order;
      luts.push_back(pool::build_lut(wp, lo));
    }
    for (int side : {4, 8, 16}) {
      for (const auto& [k, stride, pad] : {std::tuple{1, 1, 0}, {1, 2, 0}, {3, 1, 1}, {3, 2, 1}}) {
        for (int out_ch : {8, 13, 40}) {
          const nn::ConvSpec spec{8, out_ch, k, k, stride, pad, 1};
          for (int bits = 1; bits <= 8; ++bits) {
            const bool uses =
                kernels::simd::simd_bitserial_uses_layer_table(spec, side, side, bits, luts[0]);
            ASSERT_EQ(uses,
                      kernels::simd::simd_bitserial_uses_layer_table(spec, side, side, bits,
                                                                     luts[1]));
            const CostCounter a = simd_bitserial_conv_cost(spec, side, side, bits, luts[0]);
            const CostCounter b = simd_bitserial_conv_cost(spec, side, side, bits, luts[1]);
            bool pool_invariant = true;
            for (int e = 0; e < kNumEvents; ++e) {
              pool_invariant &= a.count(static_cast<Event>(e)) == b.count(static_cast<Event>(e));
            }
            EXPECT_EQ(uses, pool_invariant)
                << "side " << side << " k" << k << " s" << stride << " out_ch " << out_ch
                << " bits " << bits << " weight-oriented "
                << (order == pool::LutOrder::kWeightOriented);
            ++(uses ? table : precompute);
          }
        }
      }
    }
  }
  EXPECT_GT(table, 0);
  EXPECT_GT(precompute, 0);
}

}  // namespace
}  // namespace bswp::sim
