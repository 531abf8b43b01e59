// Tests for the kernel-backend registry: built-in registration, variant
// fallback, custom backend injection, and the XNOR binary backend executing
// through the engine loop without engine changes.
#include "runtime/kernel_backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "binary/binary_backend.h"
#include "core/rng.h"
#include "runtime/executor.h"
#include "runtime/pipeline.h"
#include "runtime/serialize.h"

namespace bswp::runtime {
namespace {

/// One-shot arena run for the hand-built networks below.
QTensor run(const CompiledNetwork& net, const Tensor& image) {
  Executor exec(net);
  return exec.run(image);
}

TEST(Registry, BuiltinBackendsRegistered) {
  KernelRegistry& reg = KernelRegistry::instance();
  EXPECT_NE(reg.find(PlanKind::kInput, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kConvBaseline, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kLinearBaseline, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kMaxPool, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kGlobalAvgPool, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kAdd, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kFlatten, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kRelu, kAnyVariant), nullptr);
  EXPECT_NE(reg.find(PlanKind::kConvBinary, kAnyVariant), nullptr);
  // Every bit-serial variant has its own conv and linear backend.
  for (int v = 0; v <= static_cast<int>(kernels::BitSerialVariant::kCachedMemoize); ++v) {
    EXPECT_NE(reg.find(PlanKind::kConvBitSerial, v), nullptr) << "variant " << v;
    EXPECT_NE(reg.find(PlanKind::kLinearBitSerial, v), nullptr) << "variant " << v;
  }
  EXPECT_GE(reg.registered().size(), 19u);
}

TEST(Registry, VariantLookupFallsBackToWildcard) {
  KernelRegistry& reg = KernelRegistry::instance();
  // Baseline conv is registered under the wildcard; any variant resolves it.
  const KernelBackend* b = reg.find(PlanKind::kConvBaseline, 3);
  ASSERT_NE(b, nullptr);
  EXPECT_STREQ(b->name(), "baseline/conv");
  // Bit-serial conv has no wildcard entry: an unknown variant fails.
  EXPECT_EQ(reg.find(PlanKind::kConvBitSerial, 99), nullptr);
  EXPECT_THROW(reg.resolve(PlanKind::kConvBitSerial, 99), std::runtime_error);
}

TEST(Registry, DuplicateRegistrationRejectedUnlessReplacing) {
  KernelRegistry& reg = KernelRegistry::instance();

  class Dummy : public KernelBackend {
   public:
    const char* name() const override { return "test/dummy"; }
    void execute_batch(const ExecContext& ctx) const override {
      for_each_image(ctx, [](const ExecContext& one) {
        const kernels::QView& in = one.input(0);
        kernels::QView& out = *one.out;
        out.rank = in.rank;
        for (int i = 0; i < in.rank; ++i) out.shape[i] = in.shape[i];
        out.len = in.len;
        out.set_meta(in);
        std::copy(in.data, in.data + in.len, out.data);
      });
    }
  };

  EXPECT_THROW(reg.add(PlanKind::kRelu, kAnyVariant, std::make_unique<Dummy>()),
               std::invalid_argument);
  // Replace, verify, then restore the original backend.
  std::unique_ptr<KernelBackend> original =
      reg.add(PlanKind::kRelu, kAnyVariant, std::make_unique<Dummy>(), /*replace=*/true);
  ASSERT_NE(original, nullptr);
  EXPECT_STREQ(reg.resolve(PlanKind::kRelu, kAnyVariant).name(), "test/dummy");
  reg.add(PlanKind::kRelu, kAnyVariant, std::move(original), /*replace=*/true);
  EXPECT_STREQ(reg.resolve(PlanKind::kRelu, kAnyVariant).name(), "structural/relu");
}

TEST(Registry, CustomBackendExecutesThroughEngine) {
  KernelRegistry& reg = KernelRegistry::instance();

  // A counting wrapper around the real maxpool backend: executor dispatch
  // must reach backends injected after the fact, with zero executor changes.
  struct CountingBackend : KernelBackend {
    const KernelBackend* inner = nullptr;
    mutable int calls = 0;
    const char* name() const override { return "test/counting-maxpool"; }
    void execute_batch(const ExecContext& ctx) const override {
      ++calls;
      inner->execute_batch(ctx);
    }
    std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                    int batch) const override {
      return inner->scratch_bytes_batch(net, plan, batch);
    }
  };

  auto counting = std::make_unique<CountingBackend>();
  CountingBackend* counting_raw = counting.get();
  std::unique_ptr<KernelBackend> original =
      reg.add(PlanKind::kMaxPool, kAnyVariant, std::move(counting), /*replace=*/true);
  counting_raw->inner = original.get();

  // input -> conv -> maxpool network, built by hand.
  nn::Graph g;
  int x = g.input(4, 8, 8);
  x = g.conv2d(x, 8, 3, 1, 1);
  x = g.relu(x);
  g.maxpool(x, 2, 2);
  Rng rng(7);
  g.init_weights(rng);
  quant::CalibrationResult cal;
  cal.input_abs_max = 1.0f;
  for (int i = 0; i < g.num_nodes(); ++i) {
    cal.node_range[i] = 1.0f;
    cal.node_abs_range[i] = 1.0f;
  }
  CompiledNetwork net = compile(g, nullptr, cal, CompileOptions{});
  run(net, Tensor({4, 8, 8}, 0.25f));
  EXPECT_EQ(counting_raw->calls, 1);

  reg.add(PlanKind::kMaxPool, kAnyVariant, std::move(original), /*replace=*/true);
  EXPECT_STREQ(reg.resolve(PlanKind::kMaxPool, kAnyVariant).name(), "baseline/maxpool");
}

// --- binary (XNOR) backend --------------------------------------------------

/// Hand-built two-plan network: quantized input -> binarized conv.
CompiledNetwork binary_net(const Tensor& w, const nn::ConvSpec& spec) {
  CompiledNetwork net;
  LayerPlan input;
  input.kind = PlanKind::kInput;
  input.name = "input";
  input.out_chw = {spec.in_ch, 6, 6};
  input.out.scale = 1.0f / 127.0f;
  input.out.bits = 8;
  input.out.is_signed = true;
  net.plans.push_back(input);

  kernels::Requant rq;
  rq.scale.assign(static_cast<std::size_t>(spec.out_ch), 1.0f);
  rq.bias.assign(static_cast<std::size_t>(spec.out_ch), 0.0f);
  rq.out.scale = 1.0f;
  rq.out.bits = 8;
  rq.out.is_signed = true;
  rq.out.zero_point = 0;
  rq.fuse_relu = false;

  LayerPlan conv = binary::make_binary_conv_plan(w, spec, rq);
  conv.name = "xnor";
  conv.inputs = {0};
  conv.out_chw = {spec.out_ch, 6, 6};
  net.plans.push_back(conv);
  return net;
}

TEST(BinaryBackend, MatchesSignConvReference) {
  nn::ConvSpec spec;
  spec.in_ch = 4;
  spec.out_ch = 2;
  spec.kh = spec.kw = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.groups = 1;
  Tensor w({2, 4, 3, 3});
  Rng rng(11);
  rng.fill_normal(w, 1.0f);

  CompiledNetwork net = binary_net(w, spec);
  Tensor image({1, 4, 6, 6});
  for (std::size_t i = 0; i < image.size(); ++i) image[i] = (i % 3 == 0) ? 0.5f : -0.25f;
  QTensor out = run(net, image);
  ASSERT_EQ(out.shape, (std::vector<int>{1, 2, 6, 6}));

  // Reference: sign(x) (*) sign(w) with -1 padding, scaled by alpha=mean|w|.
  for (int o = 0; o < 2; ++o) {
    double mean_abs = 0.0;
    for (int c = 0; c < 4; ++c)
      for (int ky = 0; ky < 3; ++ky)
        for (int kx = 0; kx < 3; ++kx) mean_abs += std::fabs(w.at(o, c, ky, kx));
    const float alpha = static_cast<float>(mean_abs / 36.0);
    for (int oy = 0; oy < 6; ++oy) {
      for (int ox = 0; ox < 6; ++ox) {
        int acc = 0;
        for (int c = 0; c < 4; ++c) {
          for (int ky = 0; ky < 3; ++ky) {
            for (int kx = 0; kx < 3; ++kx) {
              const int iy = oy + ky - 1, ix = ox + kx - 1;
              float xv = -1.0f;  // padding binarizes to -1
              if (iy >= 0 && iy < 6 && ix >= 0 && ix < 6) {
                xv = image.at(0, c, iy, ix) >= 0.0f ? 1.0f : -1.0f;
              }
              const float wv = w.at(o, c, ky, kx) >= 0.0f ? 1.0f : -1.0f;
              acc += static_cast<int>(xv * wv);
            }
          }
        }
        const float expected = alpha * static_cast<float>(acc);
        const int16_t got = out.data[(static_cast<std::size_t>(o) * 6 + oy) * 6 + ox];
        EXPECT_NEAR(static_cast<float>(got), expected, 0.5f + 1e-3f)
            << "o=" << o << " y=" << oy << " x=" << ox;
      }
    }
  }
}

TEST(BinaryBackend, RoundTripsThroughSerialization) {
  nn::ConvSpec spec;
  spec.in_ch = 4;
  spec.out_ch = 2;
  spec.kh = spec.kw = 3;
  spec.stride = 1;
  spec.pad = 1;
  spec.groups = 1;
  Tensor w({2, 4, 3, 3});
  Rng rng(12);
  rng.fill_normal(w, 1.0f);
  CompiledNetwork net = binary_net(w, spec);

  std::stringstream buf;
  save_network(net, buf);
  CompiledNetwork loaded = load_network(buf);
  ASSERT_EQ(loaded.plans.size(), net.plans.size());
  EXPECT_EQ(loaded.plans[1].kind, PlanKind::kConvBinary);

  Tensor image({4, 6, 6}, 0.3f);
  EXPECT_EQ(run(loaded, image).data, run(net, image).data);
  EXPECT_EQ(footprint(loaded).flash_bytes, footprint(net).flash_bytes);
}

}  // namespace
}  // namespace bswp::runtime
