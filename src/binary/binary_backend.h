// Bridge between the binarized (§5.5) kernels and the runtime's
// kernel-backend registry: builds PlanKind::kConvBinary layer plans and the
// XNOR backend the engine executes them through.
#pragma once

#include "binary/binarized.h"
#include "runtime/kernel_backend.h"

namespace bswp::binary {

/// Build a kConvBinary plan from float weights (entries of any magnitude;
/// XNOR-Net alpha = mean|w| per filter is folded into `rq.scale`, the stored
/// qweights are the signs). `rq.scale` must have spec.out_ch entries.
runtime::LayerPlan make_binary_conv_plan(const Tensor& w, const nn::ConvSpec& spec,
                                         const kernels::Requant& rq);

/// A popcount core over packed operands: xnor_conv2d_counts or its
/// word-widened SIMD drop-in (same layouts, counts and counter tallies).
using XnorCountsFn = void (*)(const uint32_t* in_bits, int in_ch, int h, int w,
                              const uint32_t* weight_bits, const nn::ConvSpec& spec,
                              int32_t* counts, sim::CostCounter* counter);

/// Executes kConvBinary plans: binarizes each image's quantized activation
/// by sign, packs both operands into scratch, runs `counts` and requantizes
/// the +-count accumulators. The scalar and SIMD host lanes register this
/// one backend with their own counts core.
class XnorConvBackend : public runtime::KernelBackend {
 public:
  XnorConvBackend(const char* name, XnorCountsFn counts) : name_(name), counts_(counts) {}
  const char* name() const override { return name_; }
  void execute_batch(const runtime::ExecContext& ctx) const override;
  std::size_t scratch_bytes_batch(const runtime::CompiledNetwork& net,
                                  const runtime::LayerPlan& plan, int batch) const override;

 private:
  const char* name_;
  XnorCountsFn counts_;
};

}  // namespace bswp::binary
