// Registry adapters for the SIMD host kernel family (HostLane::kSimd keys).
//
// Registered only when the library is built with BSWP_SIMD=ON; otherwise
// register_simd_backends is a no-op and SIMD-lane plans resolve to the
// scalar backends through KernelRegistry::find's scalar-lane fallback. One
// bit-serial implementation serves all five variant keys — the variants are
// bit-identical by contract and differ only in the MCU cost tallied.
#include "binary/binary_backend.h"
#include "kernels/simd/simd_dispatch.h"
#include "kernels/simd/simd_kernels.h"
#include "runtime/kernel_backend.h"

namespace bswp::runtime {
namespace {

class SimdConvBackend : public KernelBackend {
 public:
  const char* name() const override { return "simd/conv"; }
  void execute_batch(const ExecContext& ctx) const override {
    kernels::simd::simd_conv2d(ctx.input(0), ctx.input_stride(), ctx.batch, ctx.plan.qweights,
                               ctx.plan.spec, ctx.plan.rq, *ctx.out, ctx.plan.out_elems(),
                               *ctx.scratch, ctx.counter);
  }
  std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                  int batch) const override {
    (void)net;
    return kernels::simd::simd_conv_scratch_bytes(plan.spec, batch);
  }
};

class SimdLinearBackend : public KernelBackend {
 public:
  const char* name() const override { return "simd/linear"; }
  void execute_batch(const ExecContext& ctx) const override {
    kernels::simd::simd_linear(ctx.input(0), ctx.input_stride(), ctx.batch, ctx.plan.qweights,
                               ctx.plan.rq, *ctx.out, ctx.plan.out_elems(), *ctx.scratch,
                               ctx.counter);
  }
  std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                  int batch) const override {
    (void)net;
    return kernels::simd::simd_linear_scratch_bytes(plan.qweights.dim(1), batch);
  }
};

class SimdBitSerialConvBackend : public KernelBackend {
 public:
  explicit SimdBitSerialConvBackend(kernels::BitSerialVariant v) : variant_(v) {}
  const char* name() const override { return "simd/bitserial-conv"; }
  void execute_batch(const ExecContext& ctx) const override {
    kernels::simd::simd_bitserial_conv2d(ctx.input(0), ctx.input_stride(), ctx.batch,
                                         ctx.plan.indices, ctx.net.lut, ctx.plan.spec,
                                         ctx.plan.rq, variant_, *ctx.out, ctx.plan.out_elems(),
                                         *ctx.scratch, ctx.counter);
  }
  std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                  int batch) const override {
    // The producing plan's out_chw gives the input geometry.
    const std::vector<int>& chw = net.plans[static_cast<std::size_t>(plan.inputs[0])].out_chw;
    return kernels::simd::simd_bitserial_conv_scratch_bytes(
        plan.spec, chw[1], chw[2], net.lut.pool_size, net.lut.group_size, batch);
  }

 private:
  kernels::BitSerialVariant variant_;
};

class SimdBitSerialLinearBackend : public KernelBackend {
 public:
  explicit SimdBitSerialLinearBackend(kernels::BitSerialVariant v) : variant_(v) {}
  const char* name() const override { return "simd/bitserial-linear"; }
  void execute_batch(const ExecContext& ctx) const override {
    kernels::simd::simd_bitserial_linear(ctx.input(0), ctx.input_stride(), ctx.batch,
                                         ctx.plan.indices, ctx.net.lut, ctx.plan.rq, variant_,
                                         *ctx.out, ctx.plan.out_elems(), *ctx.scratch,
                                         ctx.counter);
  }
  std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                  int batch) const override {
    return kernels::simd::simd_bitserial_linear_scratch_bytes(plan.indices.out_ch,
                                                              net.lut.pool_size, batch);
  }

 private:
  kernels::BitSerialVariant variant_;
};

}  // namespace

namespace detail {

void register_simd_backends(KernelRegistry& r) {
  if (!kernels::simd::compiled()) return;
  r.add(PlanKind::kConvBaseline, kSimdKeyOffset, std::make_unique<SimdConvBackend>());
  r.add(PlanKind::kLinearBaseline, kSimdKeyOffset, std::make_unique<SimdLinearBackend>());
  using kernels::BitSerialVariant;
  for (BitSerialVariant v :
       {BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
        BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize}) {
    r.add(PlanKind::kConvBitSerial, kSimdKeyOffset + static_cast<int>(v),
          std::make_unique<SimdBitSerialConvBackend>(v));
    r.add(PlanKind::kLinearBitSerial, kSimdKeyOffset + static_cast<int>(v),
          std::make_unique<SimdBitSerialLinearBackend>(v));
  }
  // Same staging as the scalar XNOR backend; the counts core runs the
  // 64-bit-word popcount path.
  r.add(PlanKind::kConvBinary, kSimdKeyOffset,
        std::make_unique<binary::XnorConvBackend>("simd/xnor-conv",
                                                  kernels::simd::simd_xnor_conv2d_counts));
}

}  // namespace detail
}  // namespace bswp::runtime
