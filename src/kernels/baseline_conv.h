// CMSIS-NN-style int8 reference kernels (the paper's Table 7 baseline).
//
// Functionally these are plain integer convolution / linear / pooling
// kernels; their instrumentation mirrors arm_convolve_HWC_q7_basic on a
// Cortex-M3: an im2col copy of each input patch into an SRAM column buffer,
// then a MAC loop streaming weights sequentially from flash.
//
// Each kernel has two entry points: a view core that writes into a
// caller-provided (arena) output view — the form the Executor's backends
// call, zero-allocation — and an owning-QTensor wrapper (a single-image call
// into the view core) kept for tests, benches and one-off callers.
#pragma once

#include "kernels/common.h"

namespace bswp::kernels {

// --- arena (view) cores ------------------------------------------------------
//
// Conv and linear have one core each, over arena slots laid out at a fixed
// per-image element stride: image b reads `in.data + b * in_stride` and
// writes `out.data + b * out_stride` (`in`/`out` describe image 0); batch 1
// is the single-image case. The image loop sits INSIDE the filter loop so
// each weight row is loaded once per batch instead of once per image;
// per-image accumulation order is the batch-1 order, so results and
// CostCounter tallies are byte-identical to `batch` single-image calls
// (tallies are exactly batch x per-image).

/// int8 convolution into `out`. `in` is 1xCxHxW (signed or unsigned,
/// zero_point 0); `weights` is OIHW signed int8. Output is quantized via
/// `rq`; each image's output slot holds out_ch * oh * ow elements.
void baseline_conv2d(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                     const nn::ConvSpec& spec, const Requant& rq, QView& out,
                     std::size_t out_stride, sim::CostCounter* counter);

/// int8 fully-connected layer into `out`; `in` is flat (1xF).
void baseline_linear(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                     const Requant& rq, QView& out, std::size_t out_stride,
                     sim::CostCounter* counter);

// Pooling and the residual add are single-image: their backends loop them
// per image (runtime::for_each_image), having no stationary operand to share.

/// Max pooling in the quantized domain (scale-preserving) into `out`.
void maxpool_q(const QView& in, int k, int stride, QView& out, sim::CostCounter* counter);

/// Global average pooling with requantization into `out`.
void global_avgpool_q(const QView& in, const Requant& rq, QView& out, sim::CostCounter* counter);

/// Residual add into `out`: out = requantize(a.scale*qa + b.scale*qb).
/// `rq.scale` is ignored; input scales are used directly (per-tensor).
void add_q(const QView& a, const QView& b, const Requant& rq, QView& out,
           sim::CostCounter* counter);

// --- owning wrappers ---------------------------------------------------------

QTensor baseline_conv2d(const QTensor& input, const QTensor& weights, const nn::ConvSpec& spec,
                        const Requant& rq, sim::CostCounter* counter);
QTensor baseline_linear(const QTensor& input, const QTensor& weights, const Requant& rq,
                        sim::CostCounter* counter);
QTensor maxpool_q(const QTensor& input, int k, int stride, sim::CostCounter* counter);
QTensor global_avgpool_q(const QTensor& input, const Requant& rq, sim::CostCounter* counter);
QTensor add_q(const QTensor& a, const QTensor& b, const Requant& rq, sim::CostCounter* counter);

/// Scratch SRAM the baseline conv needs on the modeled MCU (im2col column
/// buffer), in bytes. The host kernel reads the activation map directly and
/// needs no scratch; this feeds the simulator's memory plan.
std::size_t baseline_conv_scratch_bytes(const nn::ConvSpec& spec);

}  // namespace bswp::kernels
