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
//   simd_bitserial_conv2d/_linear  widened bit-serial LUT accumulate. In
//                                  general all S pool dot products are
//                                  precomputed per channel-group context
//                                  (vectorized over the contiguous s axis of
//                                  an input-oriented LUT), then the filter
//                                  loop gathers 8 output channels per step
//                                  (_mm256_i32gather_epi32 over the packed
//                                  uint8 indices). Convs that pass
//                                  simd_bitserial_uses_layer_table instead
//                                  build one 2^G x F filter-restricted table
//                                  per (tap, group) and sweep every output
//                                  position with M 8-lane row adds.
//   simd_xnor_conv2d_counts        XNOR popcount over 64-bit words (pairs of
//                                  packed 32-bit lanes fused per popcount).
//   requantize / simd_add_q        the exact 8-lane requantization epilogue
//                                  every conv/linear core above ends in, and
//                                  the residual add built on it.
//
// Bit-identity holds because integer accumulation is associative modulo
// 2^32 — reordering the adds cannot change the wrapped sum — and the vector
// epilogue performs Requant::apply's float operations one for one (see
// requantize), so each output equals the scalar one. Cost counters tally the
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
/// the same sums. The dataflow follows simd_bitserial_uses_layer_table:
///  * layer table (predicate true): every image's channel groups are
///    unpacked to byte bit-planes once per call; each (tap, group) builds
///    T[bv][o] = lut(bv, idx[tap, g, o]) (2^G x F int32) and sweeps all
///    output positions of all images, adding M rows of T into per-position
///    accumulators that are requantized at the end;
///  * pool precompute (otherwise): per context all S pool values, then an
///    8-filter index gather. One image gathers channel groups from CHW, a
///    batch is first restaged HWC.
/// simd_bitserial_conv_scratch_bytes sizes either path.
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

/// The exact vector requantization epilogue, from position-major sums to
/// the channel-major activation layout:
///   out[o * out_stride + p] = rq.apply(acc[p * channels + o], ch0 + o)
/// for p < positions, o < channels. A conv passes a row (or all) of its
/// output positions with out_stride = out_h * out_w; a linear layer passes
/// one position with out_stride 1. Reads rq.scale/rq.bias at exactly
/// [ch0, ch0 + channels). The AVX2 path does apply's arithmetic 8 lanes at
/// a time with the same IEEE operations in the same order — int32 -> float,
/// a multiply and a separate add (no FMA), relu as max(0, real), a true
/// divide by out.scale, saturate_for_rounding, lround as truncate plus one
/// away from zero when |x - trunc(x)| >= 0.5, the zero point and the
/// [qmin, qmax] clamp — and stores the low 16 bits of each lane, as apply's
/// int16 cast does (unsigned 16-bit outputs included). Without AVX2 it is
/// Requant::apply in a loop.
void requantize(const Requant& rq, int ch0, const int32_t* acc, int positions, int channels,
                int16_t* out, std::size_t out_stride);

/// Residual add into `out`, byte-identical to kernels::add_q (same output
/// metadata and CostCounter tally): each element's real value
/// a.scale * (qa - a.zp) + b.scale * (qb - b.zp) is formed 8 lanes at a time
/// with add_q's float operations and requantized through requantize's
/// rounding. `out` may alias either operand's data.
void simd_add_q(const QView& a, const QView& b, const Requant& rq, QView& out,
                sim::CostCounter* counter);

/// Scratch bytes simd_conv2d draws for `batch` images of width in_w: one
/// im2col column and one output row of int32 sums per image.
std::size_t simd_conv_scratch_bytes(const nn::ConvSpec& spec, int in_w, int batch);

/// Scratch bytes simd_linear draws: one shifted copy of each input row and
/// each image's int32 sums.
std::size_t simd_linear_scratch_bytes(int in_features, int out_features, int batch);

/// Scratch bytes simd_bitserial_linear draws: the batch-wide accumulator
/// array plus the precomputed pool values (shared across images).
std::size_t simd_bitserial_linear_scratch_bytes(int out_ch, int pool_size, int batch);

/// The one predicate that routes simd_bitserial_conv2d to its layer-table
/// path for an in_h x in_w input at `act_bits`: an input-oriented LUT
/// (contiguous rows to gather from), G <= 8 (bit-vectors fit a byte plane),
/// fewer filters than pool vectors (§4.3's no-precompute regime, where most
/// precomputed pool values would go unused), and out_h*out_w*M >= 2^G
/// (enough row adds per table to amortize its 2^G entries per filter).
/// simd_bitserial_conv_scratch_bytes and sim::simd_bitserial_conv_cost
/// branch on it too.
bool simd_bitserial_uses_layer_table(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                     const pool::DotLut& lut);

/// Scratch bytes simd_bitserial_conv2d draws for `batch` in_h x in_w inputs
/// at `act_bits`. Layer-table path: the 2^G x F table, every image's bit
/// planes and per-position accumulators. Pool-precompute path: the linear
/// core's buffers plus the input staging — one channel-group row for a
/// single image, the whole batch's input windows in HWC layout otherwise.
std::size_t simd_bitserial_conv_scratch_bytes(const nn::ConvSpec& spec, int in_h, int in_w,
                                              int act_bits, const pool::DotLut& lut, int batch);

}  // namespace bswp::kernels::simd
