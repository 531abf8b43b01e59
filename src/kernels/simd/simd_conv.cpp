// Register-tiled + cache-blocked int8 conv/linear cores (HostLane::kSimd).
//
// Blocking scheme: per (output position, group) the zero-point-shifted input
// patch is staged once as an im2col column in scratch, then reused across the
// whole filter loop — the column stays L1-resident while the weight rows
// stream sequentially. The filter loop is register-tiled 4 wide so four int32
// accumulator vectors amortize each column load; within the tile the inner
// dot product runs 16 int16 lanes per step (_mm256_madd_epi16) with a scalar
// tail for the last K % 16 taps. Out-of-bounds taps stage 0, contributing
// 0 * w — exactly what the scalar kernel's tap skip contributes.
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "sim/layer_cost.h"

#if defined(BSWP_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define BSWP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bswp::kernels::simd {
namespace {

#if defined(BSWP_SIMD_X86)

__attribute__((target("avx2"))) inline int32_t hsum8(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// Dot products of `col` against four consecutive weight rows (stride
/// `wstride`), K taps each.
__attribute__((target("avx2"))) void dot4_avx2(const int16_t* col, const int16_t* w,
                                               std::size_t wstride, int K, int32_t* r) {
  __m256i a0 = _mm256_setzero_si256(), a1 = a0, a2 = a0, a3 = a0;
  int k = 0;
  for (; k + 16 <= K; k += 16) {
    const __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + k));
    const __m256i w0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + k));
    const __m256i w1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + wstride + k));
    const __m256i w2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 2 * wstride + k));
    const __m256i w3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + 3 * wstride + k));
    a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(c, w0));
    a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(c, w1));
    a2 = _mm256_add_epi32(a2, _mm256_madd_epi16(c, w2));
    a3 = _mm256_add_epi32(a3, _mm256_madd_epi16(c, w3));
  }
  r[0] = hsum8(a0);
  r[1] = hsum8(a1);
  r[2] = hsum8(a2);
  r[3] = hsum8(a3);
  for (; k < K; ++k) {
    const int32_t c = col[k];
    r[0] += c * w[k];
    r[1] += c * w[wstride + k];
    r[2] += c * w[2 * wstride + k];
    r[3] += c * w[3 * wstride + k];
  }
}

__attribute__((target("avx2"))) int32_t dot1_avx2(const int16_t* col, const int16_t* w, int K) {
  __m256i a = _mm256_setzero_si256();
  int k = 0;
  for (; k + 16 <= K; k += 16) {
    a = _mm256_add_epi32(
        a, _mm256_madd_epi16(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + k)),
                             _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + k))));
  }
  int32_t acc = hsum8(a);
  for (; k < K; ++k) acc += static_cast<int32_t>(col[k]) * w[k];
  return acc;
}

#endif  // BSWP_SIMD_X86

int32_t dot1_portable(const int16_t* col, const int16_t* w, int K) {
  int32_t acc = 0;
#pragma omp simd reduction(+ : acc)
  for (int k = 0; k < K; ++k) acc += static_cast<int32_t>(col[k]) * static_cast<int32_t>(w[k]);
  return acc;
}

/// Stage group g's zero-point-shifted patch at (oy, ox) of the CHW image at
/// `in` as a column matching
/// the weight-row layout widx = (c*kh + ky)*kw + kx. Invalid taps stage 0.
void stage_column(const int16_t* in, const nn::ConvSpec& spec, int g, int oy, int ox, int h,
                  int w, int cg, int32_t in_zp, int16_t* col) {
  std::size_t widx = 0;
  for (int c = 0; c < cg; ++c) {
    const int16_t* chan = in + static_cast<std::size_t>(g * cg + c) * h * w;
    for (int ky = 0; ky < spec.kh; ++ky) {
      const int iy = oy * spec.stride + ky - spec.pad;
      const bool row_ok = iy >= 0 && iy < h;
      for (int kx = 0; kx < spec.kw; ++kx, ++widx) {
        const int ix = ox * spec.stride + kx - spec.pad;
        col[widx] = row_ok && ix >= 0 && ix < w
                        ? static_cast<int16_t>(chan[static_cast<std::size_t>(iy) * w + ix] - in_zp)
                        : int16_t{0};
      }
    }
  }
}

/// simd_conv2d's body, instantiated for a compile-time single image
/// (kFixedBatch = 1) and for a run-time count (0), for the reason given at
/// kernels::bitserial_conv2d's core.
template <int kFixedBatch>
void conv2d_core(const QView& in, std::size_t in_stride, int batch_arg, const QTensor& weights,
                 const nn::ConvSpec& spec, const Requant& rq, QView& out, std::size_t out_stride,
                 ScratchArena& scratch, sim::CostCounter* counter) {
  const int batch = kFixedBatch > 0 ? kFixedBatch : batch_arg;
  check(in.rank == 4 && in.shape[0] == 1, "simd_conv2d: input must be 1xCxHxW");
  check(in.dim(1) == spec.in_ch, "simd_conv2d: channel mismatch");
  check(batch >= 1, "simd_conv2d: batch must be >= 1");
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const int cg = spec.in_ch / spec.groups;
  const int og = spec.out_ch / spec.groups;
  const std::size_t wstride = static_cast<std::size_t>(cg) * spec.kh * spec.kw;
  const int K = cg * spec.kh * spec.kw;

  out.set_shape({1, spec.out_ch, oh, ow});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;
  const int32_t in_zp = in.zero_point;

  // All N columns staged side by side; each 4-wide filter tile then sweeps
  // the whole batch, so the weight rows are loaded once per batch.
  int16_t* cols = scratch.alloc<int16_t>(static_cast<std::size_t>(batch) * K);
#if defined(BSWP_SIMD_X86)
  const bool use_avx2 = avx2_supported();
#endif

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      for (int g = 0; g < spec.groups; ++g) {
        for (int b = 0; b < batch; ++b) {
          stage_column(in.data + static_cast<std::size_t>(b) * in_stride, spec, g, oy, ox, h, w,
                       cg, in_zp, cols + static_cast<std::size_t>(b) * K);
        }
        const int16_t* wbase = weights.data.data() + static_cast<std::size_t>(g) * og * wstride;
        int oc = 0;
#if defined(BSWP_SIMD_X86)
        if (use_avx2) {
          for (; oc + 4 <= og; oc += 4) {
            for (int b = 0; b < batch; ++b) {
              int32_t r[4];
              dot4_avx2(cols + static_cast<std::size_t>(b) * K,
                        wbase + static_cast<std::size_t>(oc) * wstride, wstride, K, r);
              for (int i = 0; i < 4; ++i) {
                const int o = g * og + oc + i;
                out.data[static_cast<std::size_t>(b) * out_stride +
                         (static_cast<std::size_t>(o) * oh + oy) * ow + ox] = rq.apply(r[i], o);
              }
            }
          }
          for (; oc < og; ++oc) {
            const int o = g * og + oc;
            for (int b = 0; b < batch; ++b) {
              out.data[static_cast<std::size_t>(b) * out_stride +
                       (static_cast<std::size_t>(o) * oh + oy) * ow + ox] =
                  rq.apply(dot1_avx2(cols + static_cast<std::size_t>(b) * K,
                                     wbase + static_cast<std::size_t>(oc) * wstride, K),
                           o);
            }
          }
        }
#endif
        for (; oc < og; ++oc) {
          const int o = g * og + oc;
          for (int b = 0; b < batch; ++b) {
            out.data[static_cast<std::size_t>(b) * out_stride +
                     (static_cast<std::size_t>(o) * oh + oy) * ow + ox] =
                rq.apply(dot1_portable(cols + static_cast<std::size_t>(b) * K,
                                       wbase + static_cast<std::size_t>(oc) * wstride, K),
                         o);
          }
        }
      }
    }
  }
  // Tally exactly batch x the scalar MCU reference events (what
  // baseline_conv2d tallies — pinned by tests/test_layer_cost.cpp) so latency
  // estimates keep modeling the microcontroller regardless of host lane. The
  // modeled MCU does not batch; the batched closed forms in sim/layer_cost.h
  // only price the host-side amortization for lane selection.
  if (counter != nullptr) {
    const sim::CostCounter per_image = sim::baseline_conv_cost(spec, h, w);
    for (int b = 0; b < batch; ++b) counter->merge(per_image);
  }
}

}  // namespace

void simd_conv2d(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                 const nn::ConvSpec& spec, const Requant& rq, QView& out, std::size_t out_stride,
                 ScratchArena& scratch, sim::CostCounter* counter) {
  if (batch == 1) {
    conv2d_core<1>(in, in_stride, batch, weights, spec, rq, out, out_stride, scratch, counter);
  } else {
    conv2d_core<0>(in, in_stride, batch, weights, spec, rq, out, out_stride, scratch, counter);
  }
}

void simd_linear(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                 const Requant& rq, QView& out, std::size_t out_stride, ScratchArena& scratch,
                 sim::CostCounter* counter) {
  check(in.rank == 2 && in.shape[0] == 1, "simd_linear: input must be 1xF");
  check(batch >= 1, "simd_linear: batch must be >= 1");
  const int fin = in.dim(1), fout = weights.dim(0);
  check(weights.dim(1) == fin, "simd_linear: shape mismatch");
  out.set_shape({1, fout});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;

  int16_t* cols = scratch.alloc<int16_t>(static_cast<std::size_t>(batch) * fin);
  const int32_t in_zp = in.zero_point;
  for (int b = 0; b < batch; ++b) {
    const int16_t* src = in.data + static_cast<std::size_t>(b) * in_stride;
    int16_t* col = cols + static_cast<std::size_t>(b) * fin;
#pragma omp simd
    for (int i = 0; i < fin; ++i) col[i] = static_cast<int16_t>(src[i] - in_zp);
  }

  const int16_t* wbase = weights.data.data();
  const auto wstride = static_cast<std::size_t>(fin);
  int o = 0;
#if defined(BSWP_SIMD_X86)
  if (avx2_supported()) {
    for (; o + 4 <= fout; o += 4) {
      for (int b = 0; b < batch; ++b) {
        int32_t r[4];
        dot4_avx2(cols + static_cast<std::size_t>(b) * fin,
                  wbase + static_cast<std::size_t>(o) * wstride, wstride, fin, r);
        int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
        for (int i = 0; i < 4; ++i) dst[static_cast<std::size_t>(o + i)] = rq.apply(r[i], o + i);
      }
    }
    for (; o < fout; ++o) {
      for (int b = 0; b < batch; ++b) {
        out.data[static_cast<std::size_t>(b) * out_stride + static_cast<std::size_t>(o)] =
            rq.apply(dot1_avx2(cols + static_cast<std::size_t>(b) * fin,
                               wbase + static_cast<std::size_t>(o) * wstride, fin),
                     o);
      }
    }
  }
#endif
  for (; o < fout; ++o) {
    for (int b = 0; b < batch; ++b) {
      out.data[static_cast<std::size_t>(b) * out_stride + static_cast<std::size_t>(o)] =
          rq.apply(dot1_portable(cols + static_cast<std::size_t>(b) * fin,
                                 wbase + static_cast<std::size_t>(o) * wstride, fin),
                   o);
    }
  }
  if (counter != nullptr) {
    const sim::CostCounter per_image = sim::baseline_linear_cost(fin, fout);
    for (int b = 0; b < batch; ++b) counter->merge(per_image);
  }
}

std::size_t simd_conv_scratch_bytes(const nn::ConvSpec& spec, int batch) {
  return ScratchArena::bytes_for<int16_t>(static_cast<std::size_t>(spec.in_ch / spec.groups) *
                                          spec.kh * spec.kw * static_cast<std::size_t>(batch));
}

std::size_t simd_linear_scratch_bytes(int in_features, int batch) {
  return ScratchArena::bytes_for<int16_t>(static_cast<std::size_t>(in_features) *
                                          static_cast<std::size_t>(batch));
}

}  // namespace bswp::kernels::simd
