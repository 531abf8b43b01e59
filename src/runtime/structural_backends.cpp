// Structural (non-arithmetic) backends: input quantization, flatten, relu.
//
// All three write straight into their arena output view; none needs scratch.
#include <algorithm>
#include <cmath>

#include "quant/quantize.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

/// Quantizes the raw float image into the input plan's int8 domain. Rejects
/// anything that is not a single image of exactly the compiled CHW shape —
/// a mismatched image would otherwise be read out of range by the first conv.
class InputBackend : public KernelBackend {
 public:
  const char* name() const override { return "structural/input"; }
  void execute_batch(const ExecContext& ctx) const override { for_each_image(ctx, run_one); }

 private:
  static void run_one(const ExecContext& ctx) {
    check(ctx.image != nullptr, "engine: input plan executed without an image");
    const Tensor& img = *ctx.image;
    int c = 0, h = 0, w = 0;
    if (img.rank() == 3) {
      c = img.dim(0);
      h = img.dim(1);
      w = img.dim(2);
    } else {
      check(img.rank() == 4 && img.dim(0) == 1, "engine: input must be a single CHW image");
      c = img.dim(1);
      h = img.dim(2);
      w = img.dim(3);
    }
    const std::vector<int>& want = ctx.plan.out_chw;
    if (want.size() == 3 && (c != want[0] || h != want[1] || w != want[2])) {
      throw std::invalid_argument(
          "engine: input image shape " + std::to_string(c) + "x" + std::to_string(h) + "x" +
          std::to_string(w) + " does not match the network input " + std::to_string(want[0]) +
          "x" + std::to_string(want[1]) + "x" + std::to_string(want[2]));
    }
    kernels::QView& out = *ctx.out;
    out.set_shape({1, c, h, w});
    out.bits = 8;
    out.is_signed = true;
    out.scale = ctx.plan.out.scale;
    out.zero_point = 0;
    for (std::size_t i = 0; i < img.size(); ++i) {
      out.data[i] = static_cast<int16_t>(
          quant::clamp_q(static_cast<int32_t>(std::lround(img[i] / out.scale)), -128, 127));
    }
  }
};

class FlattenBackend : public KernelBackend {
 public:
  const char* name() const override { return "structural/flatten"; }
  void execute_batch(const ExecContext& ctx) const override { for_each_image(ctx, run_one); }

 private:
  static void run_one(const ExecContext& ctx) {
    const kernels::QView& in = ctx.input(0);
    kernels::QView& out = *ctx.out;
    out.set_shape({1, static_cast<int>(in.size())});
    out.set_meta(in);
    std::copy(in.data, in.data + in.size(), out.data);
  }
};

class ReluBackend : public KernelBackend {
 public:
  const char* name() const override { return "structural/relu"; }
  void execute_batch(const ExecContext& ctx) const override { for_each_image(ctx, run_one); }

 private:
  static void run_one(const ExecContext& ctx) {
    const kernels::QView& in = ctx.input(0);
    kernels::QView& out = *ctx.out;
    out.rank = in.rank;
    for (int i = 0; i < in.rank; ++i) out.shape[i] = in.shape[i];
    out.len = in.len;
    out.set_meta(in);
    const auto zp = static_cast<int16_t>(in.zero_point);
    for (std::size_t i = 0; i < in.size(); ++i) out.data[i] = std::max(in.data[i], zp);
    if (ctx.counter != nullptr) {
      ctx.counter->add(sim::Event::kSramRead, in.size());
      ctx.counter->add(sim::Event::kAlu, in.size());
      ctx.counter->add(sim::Event::kSramWrite, in.size());
    }
  }
};

}  // namespace

namespace detail {

void register_structural_backends(KernelRegistry& r) {
  r.add(PlanKind::kInput, kAnyVariant, std::make_unique<InputBackend>());
  r.add(PlanKind::kFlatten, kAnyVariant, std::make_unique<FlattenBackend>());
  r.add(PlanKind::kRelu, kAnyVariant, std::make_unique<ReluBackend>());
}

}  // namespace detail
}  // namespace bswp::runtime
