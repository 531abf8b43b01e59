// Registry adapter for the XNOR-popcount binarized conv (paper §5.5).
//
// A PlanKind::kConvBinary LayerPlan stores the per-weight signs in
// `qweights` (OIHW, entries +-1) and folds the per-filter XNOR-Net alpha
// scales — together with the input scale — into `rq`. Execution binarizes
// the incoming quantized activation by sign, packs both operands and runs
// the word-parallel XNOR kernel, then requantizes the +-count accumulators.
// `binary::make_binary_conv_plan` builds such a plan from float weights.
#include "binary/binary_backend.h"

#include <cmath>

#include "kernels/simd/simd_dispatch.h"
#include "runtime/kernel_backend.h"

namespace bswp::binary {

runtime::LayerPlan make_binary_conv_plan(const Tensor& w, const nn::ConvSpec& spec,
                                         const kernels::Requant& rq) {
  check(w.rank() == 4 && w.dim(0) == spec.out_ch && w.dim(1) == spec.in_ch &&
            w.dim(2) == spec.kh && w.dim(3) == spec.kw,
        "make_binary_conv_plan: weight shape does not match spec");
  check(rq.scale.size() == static_cast<std::size_t>(spec.out_ch) &&
            rq.bias.size() == static_cast<std::size_t>(spec.out_ch),
        "make_binary_conv_plan: rq.scale/bias must have out_ch entries");
  runtime::LayerPlan plan;
  plan.kind = runtime::PlanKind::kConvBinary;
  // Binary plans bypass SelectBackends, so pick the host lane here: the
  // word-widened popcount core is bit-identical to the scalar one and always
  // at least as fast, so use it whenever the SIMD family is registered.
  if (kernels::simd::available()) plan.lane = runtime::HostLane::kSimd;
  plan.spec = spec;
  plan.rq = rq;
  // Fold the XNOR-Net per-filter alpha = mean|w| into the requant scales so
  // the stored weights are pure signs.
  plan.qweights = QTensor(w.shape(), /*bits=*/8, /*is_signed=*/true);
  plan.qweights.scale = 1.0f;
  const std::size_t per_filter = w.size() / static_cast<std::size_t>(spec.out_ch);
  for (int o = 0; o < spec.out_ch; ++o) {
    const float* wf = w.data() + static_cast<std::size_t>(o) * per_filter;
    double mean_abs = 0.0;
    for (std::size_t j = 0; j < per_filter; ++j) mean_abs += std::fabs(wf[j]);
    const float alpha = static_cast<float>(mean_abs / static_cast<double>(per_filter));
    plan.rq.scale[static_cast<std::size_t>(o)] *= alpha;
    for (std::size_t j = 0; j < per_filter; ++j) {
      plan.qweights.data[static_cast<std::size_t>(o) * per_filter + j] =
          wf[j] >= 0.0f ? 1 : -1;
    }
  }
  plan.rq.out.is_signed = rq.out.is_signed;
  return plan;
}

void XnorConvBackend::execute_batch(const runtime::ExecContext& ctx) const {
  const runtime::LayerPlan& plan = ctx.plan;
  const kernels::QView& in = ctx.input(0);
  check(in.rank == 4 && in.shape[0] == 1, "xnor backend: input must be a single CHW activation");
  const nn::ConvSpec& spec = plan.spec;
  check(in.dim(1) == spec.in_ch, "xnor backend: channel mismatch");
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const int words = binary_pack_words(spec.in_ch);
  const std::size_t in_stride = ctx.input_stride();
  const std::size_t out_stride = plan.out_elems();

  // Stage packed operands in scratch: the activation binarized by sign
  // (q >= zero_point maps to +1) and the stored sign weights (alpha is
  // already folded into rq, so the packed weights carry no scale). Weights
  // are packed once per call — the packers tally nothing, so counters stay
  // exactly batch x the per-image counts — and the input/count staging is
  // reused image to image. Re-packing weights per call keeps the backend a
  // stateless singleton shared across networks and threads; this path is a
  // comparison baseline, not a hot path.
  uint32_t* in_bits = ctx.scratch->alloc<uint32_t>(static_cast<std::size_t>(h) * w * words);
  uint32_t* w_bits = ctx.scratch->alloc<uint32_t>(static_cast<std::size_t>(spec.out_ch) *
                                                  spec.kh * spec.kw * words);
  int32_t* counts = ctx.scratch->alloc<int32_t>(static_cast<std::size_t>(spec.out_ch) * oh * ow);
  pack_binary_weights_q(plan.qweights.data.data(), spec, w_bits);

  kernels::QView& out = *ctx.out;
  out.set_shape({1, spec.out_ch, oh, ow});
  out.bits = plan.rq.out.bits;
  out.is_signed = plan.rq.out.is_signed;
  out.scale = plan.rq.out.scale;
  out.zero_point = plan.rq.out.zero_point;
  const int hw = oh * ow;
  for (int b = 0; b < ctx.batch; ++b) {
    const int16_t* src = in.data + static_cast<std::size_t>(b) * in_stride;
    pack_binary_input_q(src, spec.in_ch, h, w, in.zero_point, in_bits);
    counts_(in_bits, spec.in_ch, h, w, w_bits, spec, counts, ctx.counter);
    int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
    for (int o = 0; o < spec.out_ch; ++o) {
      for (int i = 0; i < hw; ++i) {
        const std::size_t idx = static_cast<std::size_t>(o) * hw + static_cast<std::size_t>(i);
        dst[idx] = plan.rq.apply(counts[idx], o);
      }
    }
  }
}

std::size_t XnorConvBackend::scratch_bytes_batch(const runtime::CompiledNetwork& net,
                                                 const runtime::LayerPlan& plan,
                                                 int batch) const {
  (void)batch;  // staging is reused image to image
  const nn::ConvSpec& spec = plan.spec;
  const runtime::LayerPlan& src = net.plans[static_cast<std::size_t>(plan.inputs[0])];
  const std::size_t words = static_cast<std::size_t>(binary_pack_words(spec.in_ch));
  const std::size_t in_hw =
      spec.in_ch > 0 ? src.out_elems() / static_cast<std::size_t>(spec.in_ch) : 0;
  const std::size_t taps = static_cast<std::size_t>(spec.out_ch) * spec.kh * spec.kw;
  return ScratchArena::bytes_for<uint32_t>(in_hw * words) +
         ScratchArena::bytes_for<uint32_t>(taps * words) +
         ScratchArena::bytes_for<int32_t>(plan.out_elems());
}

}  // namespace bswp::binary

namespace bswp::runtime::detail {

void register_binary_backends(KernelRegistry& r) {
  r.add(PlanKind::kConvBinary, kAnyVariant,
        std::make_unique<binary::XnorConvBackend>("binary/xnor-conv", binary::xnor_conv2d_counts));
}

}  // namespace bswp::runtime::detail
