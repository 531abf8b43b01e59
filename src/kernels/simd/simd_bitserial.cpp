// Widened bit-serial LUT accumulate (HostLane::kSimd).
//
// Per (output position, kernel tap, channel group) context the scalar
// variants walk the filter loop doing per-filter LUT lookups; this core
// instead always materializes all S pool dot products
//   vals[s] = sum_j lut(bitvec[j], s) << j
// — vectorized 8 int32 lanes at a time over the contiguous s axis of an
// input-oriented LUT (weight-oriented layouts stride by 2^N per s, so they
// precompute scalar) — and then processes 8 output channels per step:
// _mm256_i32gather_epi32 over the packed uint8 pool indices feeds 8
// accumulators per instruction. Every variant computes the identical sums
// (they differ only in modeled cost), so one SIMD implementation serves all
// five variant keys; `variant` only selects which scalar cost closed-form to
// tally so MCU latency estimates stay faithful to the plan.
#include "kernels/bit_unpack.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "sim/layer_cost.h"

#include <algorithm>

#if defined(BSWP_SIMD_ENABLED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define BSWP_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bswp::kernels::simd {
namespace {

#if defined(BSWP_SIMD_X86)

/// vals[s] = sum_j row_j[s] << j over contiguous input-oriented LUT rows.
__attribute__((target("avx2"))) void precompute_pool_avx2(const pool::DotLut& lut,
                                                          const uint32_t* bitvec, int bits,
                                                          int32_t* vals) {
  const int S = lut.pool_size;
  const int32_t* e = lut.entries.data();
  for (int j = 0; j < bits; ++j) {
    const int32_t* row = e + static_cast<std::size_t>(bitvec[j]) * S;
    int s = 0;
    if (j == 0) {
      for (; s + 8 <= S; s += 8) {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + s),
                            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + s)));
      }
      for (; s < S; ++s) vals[s] = row[s];
    } else {
      for (; s + 8 <= S; s += 8) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(vals + s));
        const __m256i r = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + s));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + s),
                            _mm256_add_epi32(v, _mm256_slli_epi32(r, j)));
      }
      for (; s < S; ++s) vals[s] += row[s] << j;
    }
  }
}

/// acc[o] += vals[idx[o]] for 8 output channels per gather.
__attribute__((target("avx2"))) void accumulate_avx2(const int32_t* vals, const uint8_t* idx,
                                                     int out_ch, int32_t* acc) {
  int o = 0;
  for (; o + 8 <= out_ch; o += 8) {
    const __m128i b = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(idx + o));
    const __m256i gathered = _mm256_i32gather_epi32(vals, _mm256_cvtepu8_epi32(b), 4);
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + o));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + o), _mm256_add_epi32(a, gathered));
  }
  for (; o < out_ch; ++o) acc[o] += vals[idx[o]];
}

/// Batch-transposed unpack: decompose the same channel-group vector of up to
/// 8 images at once. bvt[j*8 + b] receives image b's bit-plane j — exactly
/// the value unpack_bits writes to out[j] for that image (pure bit
/// extraction, so bit-identity is free). Vectorizing across the batch is the
/// batch-only win here: one image's G values already fit one register, so the
/// per-image core has no lanes left to fill.
__attribute__((target("avx2"))) void unpack_tile8_avx2(const int16_t* base,
                                                       std::size_t img_stride, int count, int G,
                                                       int M, int32_t* bvt) {
  alignas(32) int32_t tile[32][8];
  for (int b = 0; b < count; ++b) {
    const int16_t* r = base + static_cast<std::size_t>(b) * img_stride;
    for (int g = 0; g < G; ++g) tile[g][b] = r[g];
  }
  if (count < 8) {
    for (int b = count; b < 8; ++b) {
      for (int g = 0; g < G; ++g) tile[g][b] = 0;
    }
  }
  const __m256i one = _mm256_set1_epi32(1);
  for (int j = 0; j < M; ++j) {
    __m256i acc = _mm256_setzero_si256();
    for (int g = 0; g < G; ++g) {
      const __m256i v = _mm256_load_si256(reinterpret_cast<const __m256i*>(tile[g]));
      acc = _mm256_or_si256(
          acc, _mm256_slli_epi32(_mm256_and_si256(_mm256_srli_epi32(v, j), one), g));
    }
    _mm256_store_si256(reinterpret_cast<__m256i*>(bvt + j * 8), acc);
  }
}

#endif  // BSWP_SIMD_X86

void precompute_pool_portable(const pool::DotLut& lut, const uint32_t* bitvec, int bits,
                              int32_t* vals) {
  const int S = lut.pool_size;
  if (lut.order == pool::LutOrder::kInputOriented) {
    const int32_t* e = lut.entries.data();
    for (int j = 0; j < bits; ++j) {
      const int32_t* row = e + static_cast<std::size_t>(bitvec[j]) * S;
      if (j == 0) {
#pragma omp simd
        for (int s = 0; s < S; ++s) vals[s] = row[s];
      } else {
#pragma omp simd
        for (int s = 0; s < S; ++s) vals[s] += row[s] << j;
      }
    }
  } else {
    // Weight-oriented blocks put consecutive s a full 2^N entries apart;
    // gather scalar (the cost model never prefers the SIMD lane here).
    for (int s = 0; s < S; ++s) {
      int32_t v = 0;
      for (int j = 0; j < bits; ++j) v += lut.at(bitvec[j], s) << j;
      vals[s] = v;
    }
  }
}

void accumulate_portable(const int32_t* vals, const uint8_t* idx, int out_ch, int32_t* acc) {
#pragma omp simd
  for (int o = 0; o < out_ch; ++o) acc[o] += vals[idx[o]];
}

/// One context: decompose the group vector, precompute the pool, accumulate
/// all filters through the index gather.
void run_context(const pool::DotLut& lut, const int16_t* group_vals, int group_size, int bits,
                 const uint8_t* idx, int out_ch, uint32_t* bitvec, int32_t* vals, int32_t* acc,
                 bool use_avx2) {
  unpack_bits(group_vals, group_size, bits, bitvec, nullptr);
#if defined(BSWP_SIMD_X86)
  if (use_avx2 && lut.order == pool::LutOrder::kInputOriented) {
    precompute_pool_avx2(lut, bitvec, bits, vals);
    accumulate_avx2(vals, idx, out_ch, acc);
    return;
  }
#else
  (void)use_avx2;
#endif
  precompute_pool_portable(lut, bitvec, bits, vals);
  accumulate_portable(vals, idx, out_ch, acc);
}

/// Same context for `batch` images whose group vectors sit `img_stride`
/// elements apart: unpack up to 8 images' bit-planes per transposed AVX2
/// pass, then run each image's pool precompute + index gather off the
/// transposed columns. A single image (nothing to transpose) and the
/// non-AVX2 paths run per-image run_context.
void run_context_batch(const pool::DotLut& lut, const int16_t* base, std::size_t img_stride,
                       int batch, int group_size, int bits, const uint8_t* idx, int out_ch,
                       uint32_t* bitvec, int32_t* vals, int32_t* acc, std::size_t acc_stride,
                       bool use_avx2) {
#if defined(BSWP_SIMD_X86)
  if (batch > 1 && use_avx2 && lut.order == pool::LutOrder::kInputOriented &&
      group_size <= 32) {
    alignas(32) int32_t bvt[16 * 8];
    for (int b0 = 0; b0 < batch; b0 += 8) {
      const int cnt = std::min(8, batch - b0);
      unpack_tile8_avx2(base + static_cast<std::size_t>(b0) * img_stride, img_stride, cnt,
                        group_size, bits, bvt);
      for (int k = 0; k < cnt; ++k) {
        for (int j = 0; j < bits; ++j) bitvec[j] = static_cast<uint32_t>(bvt[j * 8 + k]);
        precompute_pool_avx2(lut, bitvec, bits, vals);
        accumulate_avx2(vals, idx, out_ch, acc + static_cast<std::size_t>(b0 + k) * acc_stride);
      }
    }
    return;
  }
#endif
  for (int b = 0; b < batch; ++b) {
    run_context(lut, base + static_cast<std::size_t>(b) * img_stride, group_size, bits, idx,
                out_ch, bitvec, vals, acc + static_cast<std::size_t>(b) * acc_stride, use_avx2);
  }
}

/// simd_bitserial_conv2d's body, instantiated for a compile-time single
/// image (kFixedBatch = 1, where the HWC staging path folds away) and for a
/// run-time count (0), for the reason given at kernels::bitserial_conv2d's
/// core.
template <int kFixedBatch>
void conv2d_core(const QView& in, std::size_t in_stride, int batch_arg,
                 const PackedIndices& indices, const pool::DotLut& lut, const nn::ConvSpec& spec,
                 const Requant& rq, BitSerialVariant variant, QView& out, std::size_t out_stride,
                 ScratchArena& scratch, sim::CostCounter* counter) {
  const int batch = kFixedBatch > 0 ? kFixedBatch : batch_arg;
  check(in.rank == 4 && in.shape[0] == 1, "simd_bitserial_conv2d: input must be 1xCxHxW");
  check(!in.is_signed, "simd_bitserial_conv2d: activations must be unsigned-quantized");
  check(spec.groups == 1, "simd_bitserial_conv2d: grouped convs are not poolable");
  check(spec.in_ch % lut.group_size == 0,
        "simd_bitserial_conv2d: in_ch must divide by group size");
  check(indices.out_ch == spec.out_ch && indices.kh == spec.kh && indices.kw == spec.kw &&
            indices.groups == spec.in_ch / lut.group_size,
        "simd_bitserial_conv2d: index map does not match conv spec");
  check(batch >= 1, "simd_bitserial_conv2d: batch must be >= 1");
  const int M = in.bits;
  check(M >= 1 && M <= 16, "simd_bitserial_conv2d: activation bits out of range");

  const int G = lut.group_size;
  const int gcnt = spec.in_ch / G;
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const int F = spec.out_ch;
  const int S = lut.pool_size;

  out.set_shape({1, F, oh, ow});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;

  // Image b owns acc + b*F; pool values are recomputed per image but the LUT
  // rows and index bytes stay cache-hot across the batch.
  int32_t* acc = scratch.alloc<int32_t>(static_cast<std::size_t>(batch) * F);
  int32_t* vals = scratch.alloc<int32_t>(static_cast<std::size_t>(S));
  uint32_t bitvec[16] = {};
  const bool use_avx2 = avx2_supported();

  // The input layout follows the batch size (values are only moved, never
  // transformed, so the sums are untouched either way):
  //  * one image gathers each channel-group vector straight from the CHW
  //    activation into a G-element row — a per-call HWC restage would cost
  //    more than the G strided loads it saves;
  //  * a batch stages every image's input window to HWC once, amortized
  //    over the batch, so the hot (tap, group, image) loop reads each
  //    channel-group vector as ONE contiguous 1xG row instead of G scalar
  //    loads strided h*w apart (which thrash L1 once the CHW activation
  //    plane outgrows it), and unpacks up to 8 images per AVX2 pass.
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const std::size_t chw = hw * static_cast<std::size_t>(spec.in_ch);
  int16_t* group_vals = nullptr;
  int16_t* hwc = nullptr;
  if (batch == 1) {
    group_vals = scratch.alloc<int16_t>(static_cast<std::size_t>(G));
  } else {
    hwc = scratch.alloc<int16_t>(static_cast<std::size_t>(batch) * chw);
    for (int b = 0; b < batch; ++b) {
      const int16_t* src = in.data + static_cast<std::size_t>(b) * in_stride;
      int16_t* dst = hwc + static_cast<std::size_t>(b) * chw;
      for (int c = 0; c < spec.in_ch; ++c) {
        for (std::size_t p = 0; p < hw; ++p) {
          dst[p * static_cast<std::size_t>(spec.in_ch) + c] = src[static_cast<std::size_t>(c) * hw + p];
        }
      }
    }
  }

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      std::fill(acc, acc + static_cast<std::size_t>(batch) * F, 0);
      for (int ky = 0; ky < spec.kh; ++ky) {
        const int iy = oy * spec.stride + ky - spec.pad;
        if (iy < 0 || iy >= h) continue;
        for (int kx = 0; kx < spec.kw; ++kx) {
          const int ix = ox * spec.stride + kx - spec.pad;
          if (ix < 0 || ix >= w) continue;
          const std::size_t pixel = static_cast<std::size_t>(iy) * w + ix;
          for (int g = 0; g < gcnt; ++g) {
            const uint8_t* idx = indices.idx.data() + indices.flat(ky, kx, g, 0);
            if (hwc == nullptr) {
              for (int j = 0; j < G; ++j) {
                group_vals[j] = in.data[static_cast<std::size_t>(g * G + j) * hw + pixel];
              }
              run_context(lut, group_vals, G, M, idx, F, bitvec, vals, acc, use_avx2);
            } else {
              const int16_t* base = hwc + pixel * spec.in_ch + static_cast<std::size_t>(g) * G;
              run_context_batch(lut, base, chw, batch, G, M, idx, F, bitvec, vals, acc,
                                static_cast<std::size_t>(F), use_avx2);
            }
          }
        }
      }
      for (int b = 0; b < batch; ++b) {
        const int32_t* acc_b = acc + static_cast<std::size_t>(b) * F;
        int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
        for (int o = 0; o < F; ++o) {
          dst[(static_cast<std::size_t>(o) * oh + oy) * ow + ox] = rq.apply(acc_b[o], o);
        }
      }
    }
  }
  // Tally the plan's scalar variant's exact event counts (the closed form is
  // pinned to the scalar kernel), batch x, so MCU estimates ignore the host
  // lane and the batch size.
  if (counter != nullptr) {
    const sim::CostCounter per_image = sim::bitserial_conv_cost(spec, h, w, M, lut, indices, variant);
    for (int b = 0; b < batch; ++b) counter->merge(per_image);
  }
}

}  // namespace

void simd_bitserial_conv2d(const QView& in, std::size_t in_stride, int batch,
                           const PackedIndices& indices, const pool::DotLut& lut,
                           const nn::ConvSpec& spec, const Requant& rq, BitSerialVariant variant,
                           QView& out, std::size_t out_stride, ScratchArena& scratch,
                           sim::CostCounter* counter) {
  if (batch == 1) {
    conv2d_core<1>(in, in_stride, batch, indices, lut, spec, rq, variant, out, out_stride,
                   scratch, counter);
  } else {
    conv2d_core<0>(in, in_stride, batch, indices, lut, spec, rq, variant, out, out_stride,
                   scratch, counter);
  }
}

void simd_bitserial_linear(const QView& in, std::size_t in_stride, int batch,
                           const PackedIndices& indices, const pool::DotLut& lut,
                           const Requant& rq, BitSerialVariant variant, QView& out,
                           std::size_t out_stride, ScratchArena& scratch,
                           sim::CostCounter* counter) {
  check(in.rank == 2 && in.shape[0] == 1, "simd_bitserial_linear: input must be 1xF");
  check(!in.is_signed, "simd_bitserial_linear: activations must be unsigned-quantized");
  check(batch >= 1, "simd_bitserial_linear: batch must be >= 1");
  const int fin = in.dim(1);
  const int G = lut.group_size;
  check(fin % G == 0, "simd_bitserial_linear: input features must divide by group size");
  check(indices.kh == 1 && indices.kw == 1 && indices.groups == fin / G,
        "simd_bitserial_linear: index map mismatch");
  const int M = in.bits;
  const int F = indices.out_ch;
  const int S = lut.pool_size;

  out.set_shape({1, F});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;

  int32_t* acc = scratch.alloc<int32_t>(static_cast<std::size_t>(batch) * F);
  int32_t* vals = scratch.alloc<int32_t>(static_cast<std::size_t>(S));
  std::fill(acc, acc + static_cast<std::size_t>(batch) * F, 0);
  uint32_t bitvec[16] = {};
  const bool use_avx2 = avx2_supported();

  for (int g = 0; g < fin / G; ++g) {
    const uint8_t* idx = indices.idx.data() + indices.flat(0, 0, g, 0);
    run_context_batch(lut, in.data + static_cast<std::size_t>(g) * G, in_stride, batch, G, M,
                      idx, F, bitvec, vals, acc, static_cast<std::size_t>(F), use_avx2);
  }
  for (int b = 0; b < batch; ++b) {
    const int32_t* acc_b = acc + static_cast<std::size_t>(b) * F;
    int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
    for (int o = 0; o < F; ++o) dst[static_cast<std::size_t>(o)] = rq.apply(acc_b[o], o);
  }
  if (counter != nullptr) {
    const sim::CostCounter per_image = sim::bitserial_linear_cost(fin, M, lut, indices, variant);
    for (int b = 0; b < batch; ++b) counter->merge(per_image);
  }
}

std::size_t simd_bitserial_linear_scratch_bytes(int out_ch, int pool_size, int batch) {
  return ScratchArena::bytes_for<int32_t>(static_cast<std::size_t>(out_ch) *
                                          static_cast<std::size_t>(batch)) +
         ScratchArena::bytes_for<int32_t>(static_cast<std::size_t>(pool_size));
}

std::size_t simd_bitserial_conv_scratch_bytes(const nn::ConvSpec& spec, int in_h, int in_w,
                                              int pool_size, int group_size, int batch) {
  const std::size_t staging = batch == 1 ? static_cast<std::size_t>(group_size)
                                         : static_cast<std::size_t>(batch) *
                                               static_cast<std::size_t>(in_h) * in_w * spec.in_ch;
  return simd_bitserial_linear_scratch_bytes(spec.out_ch, pool_size, batch) +
         ScratchArena::bytes_for<int16_t>(staging);
}

}  // namespace bswp::kernels::simd
