#include "quant/quantize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/rng.h"
#include "data/synthetic.h"
#include "models/zoo.h"
#include "nn/trainer.h"
#include "quant/calibrate.h"

namespace bswp::quant {
namespace {

TEST(SymmetricQuant, RoundTripWithinHalfStep) {
  Rng rng(1);
  Tensor t({128});
  rng.fill_normal(t, 1.0f);
  QTensor q = quantize_symmetric(t, 8);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(q.real(i), t[i], q.scale * 0.5f + 1e-6f);
  }
}

TEST(SymmetricQuant, ScaleCoversAbsMax) {
  Tensor t({3}, std::vector<float>{-2.0f, 0.5f, 1.0f});
  const float s = symmetric_scale(t, 8);
  EXPECT_NEAR(s, 2.0f / 127.0f, 1e-6);
  QTensor q = quantize_symmetric(t, 8, s);
  EXPECT_EQ(q.data[0], -127);
}

TEST(SymmetricQuant, ClampsOutOfRange) {
  Tensor t({2}, std::vector<float>{10.0f, -10.0f});
  QTensor q = quantize_symmetric(t, 8, 0.01f);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -128);
}

TEST(UnsignedQuant, RespectsBitsAndRange) {
  Tensor t({4}, std::vector<float>{-1.0f, 0.0f, 0.5f, 2.0f});
  QTensor q = quantize_unsigned(t, 4, 1.0f);
  EXPECT_EQ(q.data[0], 0);   // clamped below
  EXPECT_EQ(q.data[3], 15);  // clamped above
  EXPECT_EQ(q.qmax(), 15);
  EXPECT_FALSE(q.is_signed);
}

class UnsignedBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(UnsignedBitsTest, RoundTripErrorBoundedByStep) {
  const int bits = GetParam();
  Rng rng(3);
  Tensor t({256});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  QTensor q = quantize_unsigned(t, bits, 1.0f);
  const float step = 1.0f / static_cast<float>((1 << bits) - 1);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(q.real(i), t[i], step * 0.5f + 1e-6f);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBits, UnsignedBitsTest, ::testing::Range(1, 9));

TEST(ClipSearch, PrefersClippingHeavyTails) {
  // Values mostly small with rare huge outliers: optimal clip is far below
  // the max (this is what makes iterative search beat max-calibration).
  Rng rng(5);
  std::vector<float> vals(5000);
  for (auto& v : vals) v = static_cast<float>(std::fabs(rng.normal(0.0, 0.1)));
  vals[0] = 2.0f;
  // At 4 bits the outlier would waste most of the 16 levels; the optimal
  // clip sits near the bulk of the distribution.
  const float clip = choose_clip_iterative(vals, 4);
  EXPECT_LT(clip, 1.0f);
  EXPECT_GT(clip, 0.05f);
  EXPECT_LT(unsigned_quant_mse(vals, 4, clip), unsigned_quant_mse(vals, 4, 2.0f));
}

TEST(ClipSearch, QuantMseMatchesStdRoundReference) {
  // The MSE prices every clip candidate, so it must equal the plain
  // std::round formulation exactly: ties (k + 0.5 steps), signed zeros,
  // values past the range and below zero, at every bitwidth.
  std::vector<float> vals = {-0.0f, 0.0f, -1.0f, 3.0f, 1e30f};
  Rng rng(7);
  for (int i = 0; i < 4000; ++i) vals.push_back(static_cast<float>(rng.uniform(-0.5, 2.5)));
  for (int k = 0; k < 64; ++k) vals.push_back((static_cast<float>(k) + 0.5f) / 15.0f);
  for (int bits : {1, 2, 4, 8, 12, 16}) {
    for (float range : {0.3f, 1.0f, 2.0f}) {
      const float step = range / static_cast<float>((1 << bits) - 1);
      double ref = 0.0;
      for (float v : vals) {
        const double e = static_cast<double>(v) -
                         std::round(std::clamp(v, 0.0f, range) / step) * step;
        ref += e * e;
      }
      ref /= static_cast<double>(vals.size());
      EXPECT_EQ(unsigned_quant_mse(vals, bits, range), ref) << bits << " " << range;
    }
  }
}

TEST(ClipSearch, UniformDataClipsNearMax) {
  Rng rng(6);
  std::vector<float> vals(2000);
  for (auto& v : vals) v = static_cast<float>(rng.uniform(0.0, 1.0));
  const float clip = choose_clip_iterative(vals, 8);
  EXPECT_GT(clip, 0.9f);
}

TEST(ClipSearch, DegenerateInputs) {
  EXPECT_GT(choose_clip_iterative({}, 8), 0.0f);
  EXPECT_GT(choose_clip_iterative({0.0f, 0.0f}, 8), 0.0f);
}

TEST(RoundingRshift, RoundsToNearest) {
  EXPECT_EQ(rounding_rshift(7, 2), 2);    // 1.75 -> 2
  EXPECT_EQ(rounding_rshift(5, 2), 1);    // 1.25 -> 1
  EXPECT_EQ(rounding_rshift(6, 2), 2);    // 1.5 -> 2 (round half up)
  EXPECT_EQ(rounding_rshift(-7, 2), -2);  // -1.75 -> -2
}

TEST(Calibrate, ProducesRangesForEveryNode) {
  data::SyntheticCifarOptions o;
  o.train_size = 64;
  o.image_size = 16;
  data::SyntheticCifar ds(o, true);
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.width = 0.25f;
  nn::Graph g = models::build_tinyconv(mo);
  Rng rng(7);
  g.init_weights(rng);

  CalibrateOptions co;
  co.num_samples = 32;
  CalibrationResult cal = calibrate(g, ds, co);
  EXPECT_GT(cal.input_abs_max, 0.0f);
  for (int i = 0; i < g.num_nodes(); ++i) {
    ASSERT_TRUE(cal.node_range.count(i)) << "node " << i;
    EXPECT_GT(cal.node_range.at(i), 0.0f);
    EXPECT_GT(cal.node_abs_range.at(i), 0.0f);
  }
}

TEST(Calibrate, AppliesRangesToFakeQuantNodes) {
  data::SyntheticCifarOptions o;
  o.train_size = 32;
  o.image_size = 16;
  data::SyntheticCifar ds(o, true);
  models::ModelOptions mo;
  mo.image_size = 16;
  mo.width = 0.25f;
  mo.fake_quant = true;
  nn::Graph g = models::build_tinyconv(mo);
  Rng rng(8);
  g.init_weights(rng);
  CalibrateOptions co;
  co.num_samples = 32;
  CalibrationResult cal = calibrate(g, ds, co);
  apply_ranges_to_fake_quant(g, cal);
  int fq_count = 0;
  for (int i = 0; i < g.num_nodes(); ++i) {
    if (g.node(i).op == nn::Op::kFakeQuant) {
      ++fq_count;
      EXPECT_GT(g.node(i).fq_range, 0.0f);
    }
  }
  EXPECT_GT(fq_count, 0);
}

}  // namespace
}  // namespace bswp::quant
