// Exact vector requantization (HostLane::kSimd): the epilogue every SIMD
// conv/linear core ends in, and the residual add built on it.
//
// Requant::apply maps an int32 accumulator to an output code with a short
// chain of IEEE float operations, and each has an AVX2 twin that rounds the
// same way:
//   static_cast<float>(acc)          _mm256_cvtepi32_ps (round to nearest)
//   * scale[ch] + bias[ch]           _mm256_mul_ps, then _mm256_add_ps — two
//                                    roundings; the library is built without
//                                    FMA contraction, so the scalar chain
//                                    rounds twice as well
//   real < 0 ? 0 : real              _mm256_max_ps(0, real), which returns
//                                    its second operand for NaN and for
//                                    -0.0, as the scalar select does
//   real / out.scale                 _mm256_div_ps (a true divide)
//   saturate_for_rounding            _mm256_max_ps(x, -B), _mm256_min_ps(x, B)
//   std::lround                      truncate, plus one away from zero when
//                                    |x - trunc(x)| >= 0.5. Inside the 2^24
//                                    bound trunc(x) is exact, and x - trunc(x)
//                                    is exact too (Sterbenz for |x| >= 1,
//                                    trunc(x) = 0 below), so the test sees
//                                    the true fraction: ties go away from
//                                    zero exactly as lround's do.
//   + zero_point, clamp              _mm256_add/max/min_epi32
//   static_cast<int16_t>             the low 16 bits of each lane — masked
//                                    and packed with unsigned saturation,
//                                    which passes [0, 65535] unchanged, so an
//                                    unsigned 16-bit code survives where a
//                                    signed-saturating pack would clip it.
// Every lane therefore equals apply's result bit for bit. The residual add
// forms add_q's real value a.scale * (qa - a.zp) + b.scale * (qb - b.zp)
// with the same multiply-multiply-add and then takes the same path.
#include <algorithm>

#include "kernels/baseline_conv.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"

#if defined(BSWP_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define BSWP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bswp::kernels::simd {
namespace {

#if defined(BSWP_SIMD_X86)

/// One Requant's output step (everything apply does after forming `real`),
/// broadcast to 8 lanes.
struct OutputStep8 {
  __m256 out_scale, lo_sat, hi_sat, half, abs_mask;
  __m256i zero_point, qmin, qmax, one, low16;
  bool relu;
};

__attribute__((target("avx2"))) OutputStep8 make_step(const OutputQuant& out, bool relu) {
  OutputStep8 s;
  s.out_scale = _mm256_set1_ps(out.scale);
  s.lo_sat = _mm256_set1_ps(-kRequantSaturation);
  s.hi_sat = _mm256_set1_ps(kRequantSaturation);
  s.half = _mm256_set1_ps(0.5f);
  s.abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  s.zero_point = _mm256_set1_epi32(out.zero_point);
  s.qmin = _mm256_set1_epi32(out.qmin());
  s.qmax = _mm256_set1_epi32(out.qmax());
  s.one = _mm256_set1_epi32(1);
  s.low16 = _mm256_set1_epi32(0xffff);
  s.relu = relu;
  return s;
}

/// Eight output codes from eight real values (see the file comment).
__attribute__((target("avx2"))) inline __m128i quantize8(const OutputStep8& s, __m256 real) {
  if (s.relu) real = _mm256_max_ps(_mm256_setzero_ps(), real);
  __m256 x = _mm256_div_ps(real, s.out_scale);
  x = _mm256_min_ps(_mm256_max_ps(x, s.lo_sat), s.hi_sat);
  const __m256i t = _mm256_cvttps_epi32(x);
  const __m256 frac = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
  const __m256 away = _mm256_cmp_ps(_mm256_and_ps(frac, s.abs_mask), s.half, _CMP_GE_OQ);
  // -1 for a negative x, +1 otherwise.
  const __m256i sign = _mm256_or_si256(_mm256_srai_epi32(_mm256_castps_si256(x), 31), s.one);
  __m256i q = _mm256_add_epi32(t, _mm256_and_si256(_mm256_castps_si256(away), sign));
  q = _mm256_add_epi32(q, s.zero_point);
  q = _mm256_min_epi32(_mm256_max_epi32(q, s.qmin), s.qmax);
  q = _mm256_packus_epi32(_mm256_and_si256(q, s.low16), _mm256_setzero_si256());
  // packus works per 128-bit half: bring the two halves' low quads together.
  return _mm256_castsi256_si128(_mm256_permute4x64_epi64(q, 0x08));
}

/// Writes the first `count` lanes of `q` to out[k * stride].
__attribute__((target("avx2"))) inline void store_lanes(__m128i q, int16_t* out,
                                                        std::size_t stride, int count) {
  if (stride == 1 && count == 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), q);
    return;
  }
  alignas(16) int16_t lanes[8];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), q);
  for (int k = 0; k < count; ++k) out[static_cast<std::size_t>(k) * stride] = lanes[k];
}

/// The codes of 8 channels of one position: apply's real value from 8
/// contiguous sums and their channels' scale and bias, then quantize8.
__attribute__((target("avx2"))) inline __m128i quantize_row(const OutputStep8& s,
                                                            const int32_t* acc, __m256 scale,
                                                            __m256 bias) {
  const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc));
  return quantize8(s, _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(a), scale), bias));
}

/// In-register 8x8 transpose of int16 lanes: r[k][j] -> r[j][k].
__attribute__((target("avx2"))) inline void transpose8x8_epi16(__m128i r[8]) {
  const __m128i t0 = _mm_unpacklo_epi16(r[0], r[1]), t1 = _mm_unpackhi_epi16(r[0], r[1]);
  const __m128i t2 = _mm_unpacklo_epi16(r[2], r[3]), t3 = _mm_unpackhi_epi16(r[2], r[3]);
  const __m128i t4 = _mm_unpacklo_epi16(r[4], r[5]), t5 = _mm_unpackhi_epi16(r[4], r[5]);
  const __m128i t6 = _mm_unpacklo_epi16(r[6], r[7]), t7 = _mm_unpackhi_epi16(r[6], r[7]);
  const __m128i u0 = _mm_unpacklo_epi32(t0, t2), u1 = _mm_unpackhi_epi32(t0, t2);
  const __m128i u2 = _mm_unpacklo_epi32(t1, t3), u3 = _mm_unpackhi_epi32(t1, t3);
  const __m128i u4 = _mm_unpacklo_epi32(t4, t6), u5 = _mm_unpackhi_epi32(t4, t6);
  const __m128i u6 = _mm_unpacklo_epi32(t5, t7), u7 = _mm_unpackhi_epi32(t5, t7);
  r[0] = _mm_unpacklo_epi64(u0, u4);
  r[1] = _mm_unpackhi_epi64(u0, u4);
  r[2] = _mm_unpacklo_epi64(u1, u5);
  r[3] = _mm_unpackhi_epi64(u1, u5);
  r[4] = _mm_unpacklo_epi64(u2, u6);
  r[5] = _mm_unpackhi_epi64(u2, u6);
  r[6] = _mm_unpacklo_epi64(u3, u7);
  r[7] = _mm_unpackhi_epi64(u3, u7);
}

/// Blocks of 8 channels x 8 positions are quantized one position (8
/// contiguous channels) at a time and transposed in registers, so every
/// load and store is a contiguous vector; leftover positions store their
/// lanes one channel apart, and leftover channels are staged in 8-lane
/// buffers so they take the same arithmetic.
__attribute__((target("avx2"))) void requantize_avx2(const Requant& rq, int ch0,
                                                     const int32_t* acc, int positions,
                                                     int channels, int16_t* out,
                                                     std::size_t out_stride) {
  const OutputStep8 step = make_step(rq.out, rq.fuse_relu);
  const auto F = static_cast<std::size_t>(channels);
  const float* scale = rq.scale.data() + ch0;
  const float* bias = rq.bias.data() + ch0;
  int o = 0;
  for (; o + 8 <= channels; o += 8) {
    const __m256 sc = _mm256_loadu_ps(scale + o), bi = _mm256_loadu_ps(bias + o);
    int16_t* dst = out + static_cast<std::size_t>(o) * out_stride;
    int p = 0;
    for (; p + 8 <= positions; p += 8) {
      __m128i r[8];
      for (int k = 0; k < 8; ++k) {
        r[k] = quantize_row(step, acc + static_cast<std::size_t>(p + k) * F + o, sc, bi);
      }
      transpose8x8_epi16(r);
      for (int j = 0; j < 8; ++j) {
        _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j * out_stride + p), r[j]);
      }
    }
    for (; p < positions; ++p) {
      store_lanes(quantize_row(step, acc + static_cast<std::size_t>(p) * F + o, sc, bi), dst + p,
                  out_stride, 8);
    }
  }
  if (o == channels) return;
  const int rem = channels - o;
  alignas(32) float ts[8] = {}, tb[8] = {};
  std::copy(scale + o, scale + channels, ts);
  std::copy(bias + o, bias + channels, tb);
  const __m256 sc = _mm256_load_ps(ts), bi = _mm256_load_ps(tb);
  for (int p = 0; p < positions; ++p) {
    alignas(32) int32_t ta[8] = {};
    const int32_t* row = acc + static_cast<std::size_t>(p) * F + o;
    std::copy(row, row + rem, ta);
    store_lanes(quantize_row(step, ta, sc, bi), out + static_cast<std::size_t>(o) * out_stride + p,
                out_stride, rem);
  }
}

/// add_q's real value for 8 elements.
__attribute__((target("avx2"))) inline __m256 add_real8(const int16_t* a, const int16_t* b,
                                                        __m256 a_scale, __m256i a_zp,
                                                        __m256 b_scale, __m256i b_zp) {
  const __m256i qa =
      _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(a)));
  const __m256i qb =
      _mm256_cvtepi16_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(b)));
  return _mm256_add_ps(_mm256_mul_ps(a_scale, _mm256_cvtepi32_ps(_mm256_sub_epi32(qa, a_zp))),
                       _mm256_mul_ps(b_scale, _mm256_cvtepi32_ps(_mm256_sub_epi32(qb, b_zp))));
}

/// Element i of every 8-element chunk is loaded before it is stored, so `out`
/// may alias a.data or b.data.
__attribute__((target("avx2"))) void add_avx2(const QView& a, const QView& b, const Requant& rq,
                                              int16_t* out) {
  const OutputStep8 step = make_step(rq.out, rq.fuse_relu);
  const __m256 a_scale = _mm256_set1_ps(a.scale), b_scale = _mm256_set1_ps(b.scale);
  const __m256i a_zp = _mm256_set1_epi32(a.zero_point), b_zp = _mm256_set1_epi32(b.zero_point);
  const std::size_t n = a.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     quantize8(step, add_real8(a.data + i, b.data + i, a_scale, a_zp, b_scale,
                                               b_zp)));
  }
  if (i == n) return;
  alignas(16) int16_t ta[8] = {}, tb[8] = {}, tq[8];
  const std::size_t rem = n - i;
  std::copy(a.data + i, a.data + n, ta);
  std::copy(b.data + i, b.data + n, tb);
  _mm_store_si128(reinterpret_cast<__m128i*>(tq),
                  quantize8(step, add_real8(ta, tb, a_scale, a_zp, b_scale, b_zp)));
  std::copy(tq, tq + rem, out + i);
}

#endif  // BSWP_SIMD_X86

}  // namespace

void requantize(const Requant& rq, int ch0, const int32_t* acc, int positions, int channels,
                int16_t* out, std::size_t out_stride) {
  if (positions <= 0 || channels <= 0) return;
#if defined(BSWP_SIMD_X86)
  if (avx2_supported()) {
    requantize_avx2(rq, ch0, acc, positions, channels, out, out_stride);
    return;
  }
#endif
  for (int o = 0; o < channels; ++o) {
    for (int p = 0; p < positions; ++p) {
      out[static_cast<std::size_t>(o) * out_stride + p] =
          rq.apply(acc[static_cast<std::size_t>(p) * channels + o], ch0 + o);
    }
  }
}

void simd_add_q(const QView& a, const QView& b, const Requant& rq, QView& out,
                sim::CostCounter* counter) {
#if defined(BSWP_SIMD_X86)
  if (avx2_supported()) {
    check(a.same_shape(b), "simd_add_q: shape mismatch");
    add_avx2(a, b, rq, out.data);
    // add_q's output metadata and MCU tally.
    out.rank = a.rank;
    for (int i = 0; i < a.rank; ++i) out.shape[i] = a.shape[i];
    out.len = a.len;
    out.bits = rq.out.bits;
    out.is_signed = rq.out.is_signed;
    out.scale = rq.out.scale;
    out.zero_point = rq.out.zero_point;
    if (counter != nullptr) {
      counter->add(sim::Event::kSramRead, 2 * a.size());
      counter->add(sim::Event::kMac, 2 * a.size());
      counter->add(sim::Event::kAlu, a.size());
      counter->add(sim::Event::kSramWrite, a.size());
    }
    return;
  }
#endif
  add_q(a, b, rq, out, counter);
}

}  // namespace bswp::kernels::simd
