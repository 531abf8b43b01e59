// First-principles per-layer cost model for backend selection.
//
// Every kernel in bswp::kernels tallies typed sim::Event counts as it
// executes, and those counts are exact functions of layer geometry and (for
// the memoized variant) of the packed pool indices — never of activation
// values. This header reproduces the tallies in closed form so the compile
// pipeline's SelectBackends pass can price every candidate backend *without
// running it*: estimate the CostCounter, price it with an McuProfile, pick
// the cheapest. tests/test_layer_cost.cpp asserts these estimates equal the
// counters the real kernels produce, event for event, so the model cannot
// drift from the kernels without a test failure.
#pragma once

#include "kernels/bitserial_conv.h"
#include "pool/lut.h"
#include "sim/cost_counter.h"

namespace bswp::sim {

/// Exact event counts of kernels::bitserial_conv2d for one inference of a
/// pooled conv layer. `in_h`/`in_w` are the input spatial dims, `act_bits`
/// the bitwidth M of the *input* activation (the bit-serial loop depth).
CostCounter bitserial_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                const pool::DotLut& lut, const kernels::PackedIndices& indices,
                                kernels::BitSerialVariant variant);

/// Exact event counts of kernels::bitserial_linear (`in_features` inputs).
CostCounter bitserial_linear_cost(int in_features, int act_bits, const pool::DotLut& lut,
                                  const kernels::PackedIndices& indices,
                                  kernels::BitSerialVariant variant);

/// Exact event counts of kernels::baseline_conv2d (CMSIS-like int8 conv).
CostCounter baseline_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w);

/// Exact event counts of kernels::baseline_linear.
CostCounter baseline_linear_cost(int in_features, int out_features);

// --- SIMD host lane (kernels under src/kernels/simd/) ------------------------
//
// These model the *vectorized* dataflow, not the MCU reference: one kMac is
// one 16-lane madd step (or a scalar tail multiply), staging/reduce
// overheads appear explicitly, and the bit-serial form charges the
// precompute-then-gather pipeline. They are priced with sim::host_profile()
// against the scalar forms above to choose a HostLane per layer; they are
// deliberately NOT what the SIMD kernels tally at run time (those tally the
// scalar MCU reference so Session::estimate_latency stays an MCU estimate).

/// Modeled event counts of kernels::simd::simd_conv2d.
CostCounter simd_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w);

/// Modeled event counts of kernels::simd::simd_linear.
CostCounter simd_linear_cost(int in_features, int out_features);

/// Modeled event counts of kernels::simd::simd_bitserial_conv2d. It
/// branches on kernels::simd::simd_bitserial_uses_layer_table exactly as the
/// kernel does: the layer-table path is priced as its plane unpack, one
/// 2^G x F table per (tap, group) and M row adds per context; otherwise the
/// pool precompute + gather per context. A weight-oriented LUT precomputes
/// scalar (strided rows), which the model reflects — the SIMD lane rarely
/// wins there.
CostCounter simd_bitserial_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                     const pool::DotLut& lut);

/// Modeled event counts of kernels::simd::simd_bitserial_linear.
CostCounter simd_bitserial_linear_cost(int in_features, int out_features, int act_bits,
                                       const pool::DotLut& lut);

}  // namespace bswp::sim
