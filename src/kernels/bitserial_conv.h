// Bit-serial lookup-table convolution (paper §3.1, §4, Algorithm 1).
//
// The convolution over a pooled layer is computed bit-serially: at each
// (output position, kernel position, channel group) the activation vector is
// bit-decomposed once, and for each bit plane the partial dot product with
// the selected pool vector is *looked up* and shift-accumulated. Variants
// correspond to the paper's implementation ablations:
//
//   kNaive            bit unpacking inside the filter loop (§4.1's ~9x
//                     overhead strawman)
//   kInputReuse       Algorithm 1 loop order: unpack once, reuse across all
//                     filters; LUT read from flash
//   kCached           + input-oriented LUT blocks copied flash->SRAM before
//                     the filter loop (§4.2, Figure 6/7)
//   kCachedPrecompute + all S distinct dot products computed once per input
//                     vector, filter loop becomes pure lookups (§4.3,
//                     Algorithm 1 lines 9-16)
//   kCachedMemoize    appendix alternative: dot products memoized lazily
//                     inside the filter loop
//
// All variants produce bit-identical outputs; they differ only in cost.
//
// The view cores draw their temporaries (accumulators, precompute/memo
// buffers, channel-group staging) from a caller-provided ScratchArena so a
// warm Executor performs zero heap allocations; the owning-QTensor wrappers
// allocate their own scratch and remain for tests, benches and one-off
// callers.
#pragma once

#include "core/arena.h"
#include "kernels/common.h"
#include "pool/lut.h"

namespace bswp::kernels {

enum class BitSerialVariant {
  kNaive,
  kInputReuse,
  kCached,
  kCachedPrecompute,
  kCachedMemoize,
};

const char* variant_name(BitSerialVariant v);

// --- arena (view) cores ------------------------------------------------------
//
// One core per layer type, over arena slots at a fixed per-image element
// stride: image b reads `in.data + b * in_stride` and writes
// `out.data + b * out_stride` (the views describe image 0); batch 1 is the
// single-image case. The image loop sits inside the (position, kernel tap,
// channel group) context so the packed index row and cached LUT blocks stay
// hot across the batch; each image's unpack / lookup / accumulate sequence
// is the batch-1 sequence, so outputs and CostCounter tallies are
// byte-identical to `batch` single-image calls (tallies exactly batch x).

/// Bit-serial pooled convolution into `out`. `in` must be unsigned-quantized
/// with `in.bits` <= the LUT's supported range (activation bitwidth M is
/// taken from the input view — reducing M truncates the bit-serial loop).
/// `spec.groups` must be 1 and `spec.in_ch` divisible by the pool group size.
void bitserial_conv2d(const QView& in, std::size_t in_stride, int batch,
                      const PackedIndices& indices, const pool::DotLut& lut,
                      const nn::ConvSpec& spec, const Requant& rq, BitSerialVariant variant,
                      QView& out, std::size_t out_stride, ScratchArena& scratch,
                      sim::CostCounter* counter);

/// Bit-serial pooled fully-connected layer (footnote-1 configuration).
void bitserial_linear(const QView& in, std::size_t in_stride, int batch,
                      const PackedIndices& indices, const pool::DotLut& lut, const Requant& rq,
                      BitSerialVariant variant, QView& out, std::size_t out_stride,
                      ScratchArena& scratch, sim::CostCounter* counter);

/// Host scratch bytes the view cores draw from their arena for `batch`
/// images of a layer with `out_ch` filters against a pool of `pool_size`
/// vectors and group size `group_size` (conservative: sized for the
/// hungriest variant). The accumulator array carries the batch dimension;
/// the per-group staging buffers are shared.
std::size_t bitserial_host_scratch_bytes(int out_ch, int pool_size, int group_size, int batch);

// --- owning wrappers (batch-1 calls into the view cores) --------------------

QTensor bitserial_conv2d(const QTensor& input, const PackedIndices& indices,
                         const pool::DotLut& lut, const nn::ConvSpec& spec, const Requant& rq,
                         BitSerialVariant variant, sim::CostCounter* counter);
QTensor bitserial_linear(const QTensor& input, const PackedIndices& indices,
                         const pool::DotLut& lut, const Requant& rq, BitSerialVariant variant,
                         sim::CostCounter* counter);

/// Peak SRAM scratch for a layer under a variant on the modeled MCU:
/// bit-vectors, LUT cache, precompute/memo buffers and the per-position
/// accumulator array (feeds the simulator's memory plan).
std::size_t bitserial_scratch_bytes(const nn::ConvSpec& spec, const pool::DotLut& lut,
                                    BitSerialVariant variant, int act_bits);

/// The paper's layer-level policy (§4.3): precompute pays off iff the layer
/// has more filters than the pool has vectors.
inline bool should_precompute(int out_ch, int pool_size) { return out_ch > pool_size; }

}  // namespace bswp::kernels
