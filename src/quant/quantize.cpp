#include "quant/quantize.h"

#include <algorithm>
#include <cmath>

namespace bswp::quant {

float symmetric_scale(const Tensor& t, int bits) {
  check(bits >= 2 && bits <= 16, "symmetric quant needs 2..16 bits");
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float amax = t.abs_max();
  return amax > 0.0f ? amax / qmax : 1.0f;
}

QTensor quantize_symmetric(const Tensor& t, int bits, float scale) {
  QTensor q(t.shape(), bits, /*is_signed=*/true);
  q.scale = scale;
  const int lo = q.qmin(), hi = q.qmax();
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int v = static_cast<int>(std::lround(t[i] / scale));
    q.data[i] = static_cast<int16_t>(clamp_q(v, lo, hi));
  }
  return q;
}

QTensor quantize_symmetric(const Tensor& t, int bits) {
  return quantize_symmetric(t, bits, symmetric_scale(t, bits));
}

QTensor quantize_unsigned(const Tensor& t, int bits, float range) {
  check(bits >= 1 && bits <= 16, "unsigned quant needs 1..16 bits");
  check(range > 0.0f, "unsigned quant needs positive range");
  QTensor q(t.shape(), bits, /*is_signed=*/false);
  const int hi = q.qmax();
  q.scale = range / static_cast<float>(hi);
  for (std::size_t i = 0; i < t.size(); ++i) {
    const int v = static_cast<int>(std::lround(t[i] / q.scale));
    q.data[i] = static_cast<int16_t>(clamp_q(v, 0, hi));
  }
  return q;
}

double unsigned_quant_mse(const std::vector<float>& values, int bits, float range) {
  if (values.empty() || range <= 0.0f) return 0.0;
  const float hi = static_cast<float>((1 << bits) - 1);
  const float step = range / hi;
  double mse = 0.0;
  for (float v : values) {
    const float c = std::clamp(v, 0.0f, range);
    const float r = c / step;
    // std::round(r) without a libm call on this hot path (the clip search
    // evaluates it 42 times per call): for r in [0, 2^16), r + 0.5 is exact
    // in double and truncating a non-negative value is floor. NaN and
    // anything out of range take std::round.
    const float q = (r >= 0.0f && r < 65536.0f
                         ? static_cast<float>(static_cast<int>(static_cast<double>(r) + 0.5))
                         : std::round(r)) *
                    step;
    const double e = static_cast<double>(v) - q;
    mse += e * e;
  }
  return mse / static_cast<double>(values.size());
}

float choose_clip_iterative(const std::vector<float>& values, int bits, int iters) {
  float vmax = 0.0f;
  for (float v : values) vmax = std::max(vmax, v);
  if (vmax <= 0.0f) return 1.0f;

  // Golden-section search for the clip range over [5% max, max]. The MSE as a
  // function of the clip is smooth and unimodal in practice; the paper calls
  // this step "an iterative search algorithm to determine the optimal range".
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = 0.05 * vmax, hi = vmax;
  double x1 = hi - phi * (hi - lo);
  double x2 = lo + phi * (hi - lo);
  double f1 = unsigned_quant_mse(values, bits, static_cast<float>(x1));
  double f2 = unsigned_quant_mse(values, bits, static_cast<float>(x2));
  for (int i = 0; i < iters; ++i) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - phi * (hi - lo);
      f1 = unsigned_quant_mse(values, bits, static_cast<float>(x1));
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + phi * (hi - lo);
      f2 = unsigned_quant_mse(values, bits, static_cast<float>(x2));
    }
  }
  return static_cast<float>((lo + hi) / 2.0);
}

}  // namespace bswp::quant
