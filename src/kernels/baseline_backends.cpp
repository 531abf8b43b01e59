// Registry adapters for the CMSIS-like int8 kernels (conv / linear / pooling
// / residual add). All execute straight into the arena output view; none of
// the host kernels needs scratch. Conv and linear run their batch-strided
// cores; pooling and add have no cross-image work to share and loop per
// image.
#include "kernels/baseline_conv.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

class BaselineConvBackend : public KernelBackend {
 public:
  const char* name() const override { return "baseline/conv"; }
  void execute_batch(const ExecContext& ctx) const override {
    kernels::baseline_conv2d(ctx.input(0), ctx.input_stride(), ctx.batch, ctx.plan.qweights,
                             ctx.plan.spec, ctx.plan.rq, *ctx.out, ctx.plan.out_elems(),
                             ctx.counter);
  }
};

class BaselineLinearBackend : public KernelBackend {
 public:
  const char* name() const override { return "baseline/linear"; }
  void execute_batch(const ExecContext& ctx) const override {
    kernels::baseline_linear(ctx.input(0), ctx.input_stride(), ctx.batch, ctx.plan.qweights,
                             ctx.plan.rq, *ctx.out, ctx.plan.out_elems(), ctx.counter);
  }
};

class MaxPoolBackend : public KernelBackend {
 public:
  const char* name() const override { return "baseline/maxpool"; }
  void execute_batch(const ExecContext& ctx) const override { for_each_image(ctx, run_one); }

 private:
  static void run_one(const ExecContext& ctx) {
    kernels::maxpool_q(ctx.input(0), ctx.plan.pool_k, ctx.plan.pool_stride, *ctx.out,
                       ctx.counter);
  }
};

class GlobalAvgPoolBackend : public KernelBackend {
 public:
  const char* name() const override { return "baseline/gap"; }
  void execute_batch(const ExecContext& ctx) const override { for_each_image(ctx, run_one); }

 private:
  static void run_one(const ExecContext& ctx) {
    kernels::global_avgpool_q(ctx.input(0), ctx.plan.rq, *ctx.out, ctx.counter);
  }
};

class AddBackend : public KernelBackend {
 public:
  const char* name() const override { return "baseline/add"; }
  void execute_batch(const ExecContext& ctx) const override { for_each_image(ctx, run_one); }

 private:
  static void run_one(const ExecContext& ctx) {
    kernels::add_q(ctx.input(0), ctx.input(1), ctx.plan.rq, *ctx.out, ctx.counter);
  }
};

}  // namespace

namespace detail {

void register_baseline_backends(KernelRegistry& r) {
  r.add(PlanKind::kConvBaseline, kAnyVariant, std::make_unique<BaselineConvBackend>());
  r.add(PlanKind::kLinearBaseline, kAnyVariant, std::make_unique<BaselineLinearBackend>());
  r.add(PlanKind::kMaxPool, kAnyVariant, std::make_unique<MaxPoolBackend>());
  r.add(PlanKind::kGlobalAvgPool, kAnyVariant, std::make_unique<GlobalAvgPoolBackend>());
  r.add(PlanKind::kAdd, kAnyVariant, std::make_unique<AddBackend>());
}

}  // namespace detail
}  // namespace bswp::runtime
