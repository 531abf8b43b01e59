// Widened bit-serial LUT accumulate (HostLane::kSimd).
//
// Every variant computes the identical sums (they differ only in modeled
// cost), so one SIMD implementation serves all five variant keys; `variant`
// only selects which scalar cost closed-form to tally so MCU latency
// estimates stay faithful to the plan. The core has two dataflows:
//
//  * Pool precompute (the general case). Per (output position, kernel tap,
//    channel group) context the scalar variants walk the filter loop doing
//    per-filter LUT lookups; this path instead materializes all S pool dot
//    products
//      vals[s] = sum_j lut(bitvec[j], s) << j
//    — vectorized 8 int32 lanes at a time over the contiguous s axis of an
//    input-oriented LUT (weight-oriented layouts stride by 2^N per s, so they
//    precompute scalar) — and then processes 8 output channels per step:
//    _mm256_i32gather_epi32 over the packed uint8 pool indices feeds 8
//    accumulators per instruction.
//  * Layer table (simd_bitserial_uses_layer_table: fewer filters than pool
//    vectors, G <= 8, and enough output rows to amortize the table). Below
//    §4.3's precompute line most of the S pool values go unused, so the
//    path works per (tap, group) instead of per context: every input
//    pixel's channel groups are unpacked to byte bit-planes once per call,
//    each (tap, group) builds the filter-restricted table
//      T[bv][o] = lut(bv, idx[tap, g, o])      (2^G x F int32)
//    and one sweep over every output position of every image adds M table
//    rows of F lanes, T[plane_j] << j, into per-position accumulators that
//    are requantized at the end. The terms are the scalar kernel's terms,
//    summed in another order, so the int32 sums are identical.
//
// Both dataflows hand their int32 sums to the exact vector epilogue,
// requantize (simd_requant.cpp).
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

/// A kernel tap's in-bounds output window for the layer-table sweep: output
/// (oy, ox) in [oy0, oy1) x [ox0, ox1) reads input pixel
/// (oy*stride + dy, ox*stride + dx) of a w-wide plane; `ow` strides the
/// per-position accumulators.
struct TapWindow {
  int oy0, oy1, ox0, ox1;
  int dy, dx, stride, w, ow;
};

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

/// Layer-table build: T[bv*F + o] = lut(bv, idx[o]) for every bit-vector bv,
/// one 8-filter gather from the input-oriented row bv per store.
__attribute__((target("avx2"))) void build_table_avx2(const pool::DotLut& lut, const uint8_t* idx,
                                                      int F, int32_t* table) {
  const int S = lut.pool_size;
  const int nbv = lut.num_bit_vectors();
  const int32_t* e = lut.entries.data();
  int o = 0;
  for (; o + 8 <= F; o += 8) {
    const __m256i iv =
        _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(idx + o)));
    for (int bv = 0; bv < nbv; ++bv) {
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(table + static_cast<std::size_t>(bv) * F + o),
          _mm256_i32gather_epi32(e + static_cast<std::size_t>(bv) * S, iv, 4));
    }
  }
  for (; o < F; ++o) {
    for (int bv = 0; bv < nbv; ++bv) {
      table[static_cast<std::size_t>(bv) * F + o] = e[static_cast<std::size_t>(bv) * S + idx[o]];
    }
  }
}

/// Layer-table sweep of one (tap, group) over one image: every output
/// position of the tap's in-bounds window adds its M table rows, 8 filters
/// per vector.
__attribute__((target("avx2"))) void sweep_tap_avx2(const int32_t* table, int F,
                                                    const uint8_t* planes, std::size_t hw, int M,
                                                    const TapWindow tw, int32_t* acc) {
  const auto fz = static_cast<std::size_t>(F);
  const auto stride = static_cast<std::ptrdiff_t>(tw.stride);
  for (int oy = tw.oy0; oy < tw.oy1; ++oy) {
    const std::ptrdiff_t row_px =
        static_cast<std::ptrdiff_t>(oy * tw.stride + tw.dy) * tw.w + tw.dx;
    const uint8_t* pl = planes + (row_px + tw.ox0 * stride);
    int32_t* a = acc + (static_cast<std::size_t>(oy) * tw.ow + tw.ox0) * fz;
    for (int ox = tw.ox0; ox < tw.ox1; ++ox, pl += stride, a += fz) {
      // Horner over the planes, sum_j T[bv_j] << j = T[bv_0] + 2*(T[bv_1] +
      // 2*(...)): equal modulo 2^32, with a constant doubling per plane.
      int o = 0;
      for (; o + 8 <= F; o += 8) {
        const int32_t* t = table + o;
        __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
            t + pl[(M - 1) * hw] * fz));
        for (int j = M - 2; j >= 0; --j) {
          v = _mm256_add_epi32(_mm256_add_epi32(v, v),
                               _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                   t + pl[j * hw] * fz)));
        }
        const __m256i prev = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + o));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a + o), _mm256_add_epi32(prev, v));
      }
      for (; o < F; ++o) {
        uint32_t v = 0;
        for (int j = M - 1; j >= 0; --j) {
          v = 2 * v + static_cast<uint32_t>(table[pl[j * hw] * fz + o]);
        }
        a[o] = static_cast<int32_t>(static_cast<uint32_t>(a[o]) + v);
      }
    }
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

void build_table_portable(const pool::DotLut& lut, const uint8_t* idx, int F, int32_t* table) {
  const int S = lut.pool_size;
  const int32_t* e = lut.entries.data();
  for (int bv = 0; bv < lut.num_bit_vectors(); ++bv) {
    const int32_t* row = e + static_cast<std::size_t>(bv) * S;
    int32_t* t = table + static_cast<std::size_t>(bv) * F;
#pragma omp simd
    for (int o = 0; o < F; ++o) t[o] = row[idx[o]];
  }
}

void sweep_tap_portable(const int32_t* table, int F, const uint8_t* planes, std::size_t hw, int M,
                        const TapWindow tw, int32_t* acc) {
  const auto fz = static_cast<std::size_t>(F);
  const auto stride = static_cast<std::ptrdiff_t>(tw.stride);
  for (int oy = tw.oy0; oy < tw.oy1; ++oy) {
    const std::ptrdiff_t row_px =
        static_cast<std::ptrdiff_t>(oy * tw.stride + tw.dy) * tw.w + tw.dx;
    const uint8_t* pl = planes + (row_px + tw.ox0 * stride);
    int32_t* a = acc + (static_cast<std::size_t>(oy) * tw.ow + tw.ox0) * fz;
    for (int ox = tw.ox0; ox < tw.ox1; ++ox, pl += stride, a += fz) {
      for (int j = 0; j < M; ++j) {
        const int32_t* row = table + pl[j * hw] * fz;
#pragma omp simd
        for (int o = 0; o < F; ++o) {
          a[o] = static_cast<int32_t>(static_cast<uint32_t>(a[o]) +
                                      (static_cast<uint32_t>(row[o]) << j));
        }
      }
    }
  }
}

/// [lo, hi): the output coordinates o whose input coordinate o*stride + off
/// lands in [0, in_dim) — the in-bounds guard of the context loops, solved
/// once per tap.
void tap_range(int out_dim, int in_dim, int off, int stride, int& lo, int& hi) {
  lo = 0;
  while (lo < out_dim && lo * stride + off < 0) ++lo;
  hi = out_dim;
  while (hi > lo && (hi - 1) * stride + off >= in_dim) --hi;
}

/// The layer-table dataflow (file comment) for the whole batch.
/// planes[((b*gcnt + g)*M + j)*hw + p] is bit-vector j of channel group g at
/// pixel p of image b — the value unpack_bits writes to out[j] for that
/// group; acc[(b*P + p)*F + o] is image b's accumulator for filter o at
/// output position p.
void layer_table_conv(const QView& in, std::size_t in_stride, int batch,
                      const PackedIndices& indices, const pool::DotLut& lut,
                      const nn::ConvSpec& spec, const Requant& rq, QView& out,
                      std::size_t out_stride, ScratchArena& scratch) {
  const int G = lut.group_size;
  const int gcnt = spec.in_ch / G;
  const int M = in.bits;
  const int F = spec.out_ch;
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const std::size_t hw = static_cast<std::size_t>(h) * w;
  const std::size_t P = static_cast<std::size_t>(oh) * ow;
  const std::size_t img_planes = static_cast<std::size_t>(gcnt) * M * hw;
  const std::size_t img_acc = P * static_cast<std::size_t>(F);

  int32_t* table = scratch.alloc<int32_t>(static_cast<std::size_t>(lut.num_bit_vectors()) * F);
  uint8_t* planes = scratch.alloc<uint8_t>(static_cast<std::size_t>(batch) * img_planes);
  int32_t* acc = scratch.alloc<int32_t>(static_cast<std::size_t>(batch) * img_acc);
  std::fill(acc, acc + static_cast<std::size_t>(batch) * img_acc, 0);
  const bool use_avx2 = avx2_supported();

  // Element i of the group ORs its bit j into bit i of plane j; every loop
  // streams contiguous pixels.
  for (int b = 0; b < batch; ++b) {
    for (int g = 0; g < gcnt; ++g) {
      const int16_t* src =
          in.data + static_cast<std::size_t>(b) * in_stride + static_cast<std::size_t>(g) * G * hw;
      uint8_t* dst = planes + static_cast<std::size_t>(b) * img_planes +
                     static_cast<std::size_t>(g) * M * hw;
      std::fill(dst, dst + static_cast<std::size_t>(M) * hw, uint8_t{0});
      for (int i = 0; i < G; ++i) {
        const int16_t* x = src + static_cast<std::size_t>(i) * hw;
        for (int j = 0; j < M; ++j) {
          uint8_t* d = dst + static_cast<std::size_t>(j) * hw;
#pragma omp simd
          for (std::size_t p = 0; p < hw; ++p) {
            d[p] = static_cast<uint8_t>(d[p] | (((static_cast<uint32_t>(x[p]) >> j) & 1u) << i));
          }
        }
      }
    }
  }

  for (int ky = 0; ky < spec.kh; ++ky) {
    for (int kx = 0; kx < spec.kw; ++kx) {
      TapWindow tw{0, 0, 0, 0, ky - spec.pad, kx - spec.pad, spec.stride, w, ow};
      tap_range(oh, h, tw.dy, spec.stride, tw.oy0, tw.oy1);
      tap_range(ow, w, tw.dx, spec.stride, tw.ox0, tw.ox1);
      if (tw.oy0 == tw.oy1 || tw.ox0 == tw.ox1) continue;
      for (int g = 0; g < gcnt; ++g) {
        const uint8_t* idx = indices.idx.data() + indices.flat(ky, kx, g, 0);
        const std::size_t plane_off = static_cast<std::size_t>(g) * M * hw;
#if defined(BSWP_SIMD_X86)
        if (use_avx2) {
          build_table_avx2(lut, idx, F, table);
          for (int b = 0; b < batch; ++b) {
            sweep_tap_avx2(table, F, planes + b * img_planes + plane_off, hw, M, tw,
                           acc + b * img_acc);
          }
          continue;
        }
#else
        (void)use_avx2;
#endif
        build_table_portable(lut, idx, F, table);
        for (int b = 0; b < batch; ++b) {
          sweep_tap_portable(table, F, planes + b * img_planes + plane_off, hw, M, tw,
                             acc + b * img_acc);
        }
      }
    }
  }

  for (int b = 0; b < batch; ++b) {
    const int32_t* acc_b = acc + static_cast<std::size_t>(b) * img_acc;
    int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
    requantize(rq, 0, acc_b, static_cast<int>(P), F, dst, P);
  }
}

/// The pool-precompute dataflow, instantiated for a compile-time single
/// image (kFixedBatch = 1, where the HWC staging path folds away) and for a
/// run-time count (0), for the reason given at kernels::bitserial_conv2d's
/// core.
template <int kFixedBatch>
void pool_precompute_conv(const QView& in, std::size_t in_stride, int batch_arg,
                          const PackedIndices& indices, const pool::DotLut& lut,
                          const nn::ConvSpec& spec, const Requant& rq, QView& out,
                          std::size_t out_stride, ScratchArena& scratch) {
  const int batch = kFixedBatch > 0 ? kFixedBatch : batch_arg;
  const int M = in.bits;
  const int G = lut.group_size;
  const int gcnt = spec.in_ch / G;
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const int F = spec.out_ch;
  const int S = lut.pool_size;

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
      // One position's F channels, stored one output plane apart. (Buffering
      // a whole output row instead measured up to 20 us slower per stage-3
      // conv of pooled ResNet-s in perfbench, though not in isolation.)
      for (int b = 0; b < batch; ++b) {
        requantize(rq, 0, acc + static_cast<std::size_t>(b) * F, 1, F,
                   out.data + static_cast<std::size_t>(b) * out_stride +
                       static_cast<std::size_t>(oy) * ow + ox,
                   static_cast<std::size_t>(oh) * ow);
      }
    }
  }
}

}  // namespace

bool simd_bitserial_uses_layer_table(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                     const pool::DotLut& lut) {
  const int G = lut.group_size;
  return lut.order == pool::LutOrder::kInputOriented && G >= 1 && G <= 8 &&
         spec.out_ch < lut.pool_size &&
         static_cast<int64_t>(spec.out_h(in_h)) * spec.out_w(in_w) * act_bits >=
             (int64_t{1} << G);
}

void simd_bitserial_conv2d(const QView& in, std::size_t in_stride, int batch,
                           const PackedIndices& indices, const pool::DotLut& lut,
                           const nn::ConvSpec& spec, const Requant& rq, BitSerialVariant variant,
                           QView& out, std::size_t out_stride, ScratchArena& scratch,
                           sim::CostCounter* counter) {
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
  const int h = in.dim(2), w = in.dim(3);

  out.set_shape({1, spec.out_ch, spec.out_h(h), spec.out_w(w)});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;

  if (simd_bitserial_uses_layer_table(spec, h, w, M, lut)) {
    layer_table_conv(in, in_stride, batch, indices, lut, spec, rq, out, out_stride, scratch);
  } else if (batch == 1) {
    pool_precompute_conv<1>(in, in_stride, batch, indices, lut, spec, rq, out, out_stride,
                            scratch);
  } else {
    pool_precompute_conv<0>(in, in_stride, batch, indices, lut, spec, rq, out, out_stride,
                            scratch);
  }
  // Tally the plan's scalar variant's exact event counts (the closed form is
  // pinned to the scalar kernel), batch x, so MCU estimates ignore the host
  // lane and the batch size.
  if (counter != nullptr) {
    const sim::CostCounter per_image = sim::bitserial_conv_cost(spec, h, w, M, lut, indices, variant);
    for (int b = 0; b < batch; ++b) counter->merge(per_image);
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
    requantize(rq, 0, acc_b, 1, F, dst, 1);
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
                                              int act_bits, const pool::DotLut& lut, int batch) {
  const auto n = static_cast<std::size_t>(batch);
  const std::size_t hw = static_cast<std::size_t>(in_h) * in_w;
  if (simd_bitserial_uses_layer_table(spec, in_h, in_w, act_bits, lut)) {
    const auto F = static_cast<std::size_t>(spec.out_ch);
    const std::size_t P = static_cast<std::size_t>(spec.out_h(in_h)) * spec.out_w(in_w);
    const auto gcnt = static_cast<std::size_t>(spec.in_ch / lut.group_size);
    return ScratchArena::bytes_for<int32_t>(static_cast<std::size_t>(lut.num_bit_vectors()) * F) +
           ScratchArena::bytes_for<uint8_t>(n * gcnt * static_cast<std::size_t>(act_bits) * hw) +
           ScratchArena::bytes_for<int32_t>(n * P * F);
  }
  const std::size_t staging = batch == 1 ? static_cast<std::size_t>(lut.group_size)
                                         : n * hw * static_cast<std::size_t>(spec.in_ch);
  return simd_bitserial_linear_scratch_bytes(spec.out_ch, lut.pool_size, batch) +
         ScratchArena::bytes_for<int16_t>(staging);
}

}  // namespace bswp::kernels::simd
