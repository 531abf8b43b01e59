// Vectorized + cache-blocked host kernels (HostLane::kSimd).
//
// Three hot paths, each bit-identical to its scalar reference kernel:
//
//   simd_conv2d / simd_linear      int8 conv & fully-connected cores. Each
//                                  output position stages an im2col column of
//                                  zero-point-shifted activations in scratch
//                                  (out-of-bounds taps stage 0, which
//                                  contributes 0*w like the scalar tap skip),
//                                  then a 4-filter register tile runs 16-lane
//                                  int16 multiply-accumulates over the shared
//                                  column (AVX2 _mm256_madd_epi16, or a
//                                  `#pragma omp simd` reduction).
//   simd_bitserial_conv2d/_linear  widened bit-serial LUT accumulate: all S
//                                  pool dot products are precomputed per
//                                  channel-group context (vectorized over the
//                                  contiguous s axis of an input-oriented
//                                  LUT), then the filter loop gathers 8
//                                  output channels per step
//                                  (_mm256_i32gather_epi32 over the packed
//                                  uint8 indices).
//   simd_xnor_conv2d_counts        XNOR popcount over 64-bit words (pairs of
//                                  packed 32-bit lanes fused per popcount).
//
// Bit-identity holds because integer accumulation is associative modulo
// 2^32 — reordering the adds cannot change the wrapped sum — and
// requantization stays scalar per output element. Cost counters tally the
// *scalar MCU reference* events (merged from the closed forms in
// sim/layer_cost.h, which tests pin to the scalar kernels event-for-event),
// so Session::estimate_latency keeps answering "what would this cost on the
// microcontroller" no matter which host lane produced the logits.
//
// All cores draw temporaries exclusively from the caller's ScratchArena;
// the *_scratch_bytes helpers report the exact upper bound the backends
// advertise through KernelBackend::scratch_bytes_batch().
#pragma once

#include "core/arena.h"
#include "kernels/bitserial_conv.h"
#include "kernels/common.h"
#include "pool/lut.h"

namespace bswp::kernels::simd {

// One core per layer type, over arena slots at a fixed per-image element
// stride (image b reads `in.data + b * in_stride`, writes
// `out.data + b * out_stride`; the views describe image 0); batch 1 is the
// single-image case. The conv/linear cores stage all N im2col columns per
// (position, group) and sweep each 4-wide AVX2 filter tile across the whole
// batch, loading every weight row once per batch instead of once per image;
// the bit-serial cores keep the LUT rows and index gathers hot across
// images. Per-image dot products do not depend on the batch, so results and
// CostCounter tallies are byte-identical to `batch` single-image calls.

/// Vectorized int8 convolution into `out`; arguments mirror
/// kernels::baseline_conv2d plus the scratch arena for the column buffers.
void simd_conv2d(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                 const nn::ConvSpec& spec, const Requant& rq, QView& out, std::size_t out_stride,
                 ScratchArena& scratch, sim::CostCounter* counter);

/// Vectorized int8 fully-connected layer into `out`.
void simd_linear(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                 const Requant& rq, QView& out, std::size_t out_stride, ScratchArena& scratch,
                 sim::CostCounter* counter);

/// Widened bit-serial pooled convolution into `out`. `variant` only selects
/// which scalar variant's cost counters to tally — every variant computes
/// the same sums, and this core always precomputes the full pool. The input
/// layout follows the batch size: one image gathers channel groups from CHW,
/// a batch is first restaged HWC (see simd_bitserial_conv_scratch_bytes).
void simd_bitserial_conv2d(const QView& in, std::size_t in_stride, int batch,
                           const PackedIndices& indices, const pool::DotLut& lut,
                           const nn::ConvSpec& spec, const Requant& rq, BitSerialVariant variant,
                           QView& out, std::size_t out_stride, ScratchArena& scratch,
                           sim::CostCounter* counter);

/// Widened bit-serial pooled fully-connected layer into `out`.
void simd_bitserial_linear(const QView& in, std::size_t in_stride, int batch,
                           const PackedIndices& indices, const pool::DotLut& lut,
                           const Requant& rq, BitSerialVariant variant, QView& out,
                           std::size_t out_stride, ScratchArena& scratch,
                           sim::CostCounter* counter);

/// 64-bit-word XNOR popcount core; drop-in for binary::xnor_conv2d_counts
/// (same packed layouts, counts and counter tallies).
void simd_xnor_conv2d_counts(const uint32_t* in_bits, int in_ch, int h, int w,
                             const uint32_t* weight_bits, const nn::ConvSpec& spec,
                             int32_t* counts, sim::CostCounter* counter);

/// Scratch bytes simd_conv2d draws for `batch` images (one im2col column
/// per image).
std::size_t simd_conv_scratch_bytes(const nn::ConvSpec& spec, int batch);

/// Scratch bytes simd_linear draws (one shifted copy of each input row).
std::size_t simd_linear_scratch_bytes(int in_features, int batch);

/// Scratch bytes simd_bitserial_linear draws: the batch-wide accumulator
/// array plus the precomputed pool values (shared across images).
std::size_t simd_bitserial_linear_scratch_bytes(int out_ch, int pool_size, int batch);

/// Scratch bytes simd_bitserial_conv2d draws for an in_h x in_w input: the
/// linear core's buffers plus the input staging — one channel-group row for
/// a single image, the whole batch's input windows in HWC layout otherwise.
std::size_t simd_bitserial_conv_scratch_bytes(const nn::ConvSpec& spec, int in_h, int in_w,
                                              int pool_size, int group_size, int batch);

}  // namespace bswp::kernels::simd
