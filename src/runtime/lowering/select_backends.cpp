// SelectBackends: assign every live node its PlanKind and, for pooled
// layers, the bit-serial variant that will execute it.
//
// The variant choice is a measured-cost decision: sim/layer_cost.h predicts the exact event counts of all five bit-serial
// variants (the counts are closed-form in geometry and pool indices — see
// tests/test_layer_cost.cpp), CompileOptions::cost_profile prices them in
// cycles, and the cheapest variant wins. Because per-layer cycles are
// additive, per-layer argmin is optimal for whole-network simulated latency
// — it can only match or beat the §4.3 filters-vs-pool-size heuristic,
// whose cycles the report keeps beside every choice. The baseline int8 kernel is priced alongside for the report, but never chosen
// for a pooled layer (it computes different numerics than the LUT path).
//
// Orthogonally, every conv/linear layer gets a HostLane: the scalar
// reference kernels or the SIMD family under src/kernels/simd/. Both lanes
// are bit-identical, so the decision is pure wall-clock — the same argmin
// machinery prices the scalar closed form against the simd_* closed form
// under CompileOptions::host_profile and keeps the cheaper lane (ties go to
// scalar). kSimd is never assigned when the SIMD backends are compiled out.
// Residual adds take the SIMD lane unpriced whenever it is allowed.
#include <limits>

#include "kernels/simd/simd_dispatch.h"
#include "runtime/lowering/plan_graph.h"
#include "sim/layer_cost.h"

namespace bswp::runtime::lowering {
namespace {

using kernels::BitSerialVariant;

constexpr BitSerialVariant kAllVariants[] = {
    BitSerialVariant::kNaive, BitSerialVariant::kInputReuse, BitSerialVariant::kCached,
    BitSerialVariant::kCachedPrecompute, BitSerialVariant::kCachedMemoize};

class SelectBackends : public Pass {
 public:
  const char* name() const override { return "SelectBackends"; }

  int run(PlanGraph& pg, PassContext& ctx, std::string* detail) override {
    int decided = 0, cost_picked = 0, simd_lanes = 0;
    for (int id : pg.live_nodes()) {
      PlanNode& n = pg.node(id);
      switch (n.op) {
        case nn::Op::kInput: n.kind = PlanKind::kInput; break;
        case nn::Op::kMaxPool: n.kind = PlanKind::kMaxPool; break;
        case nn::Op::kGlobalAvgPool: n.kind = PlanKind::kGlobalAvgPool; break;
        case nn::Op::kAdd:
          // The SIMD add is bit-identical and never slower, so it needs no
          // pricing: it takes the lane wherever the family may be used.
          n.kind = PlanKind::kAdd;
          if (kernels::simd::available() && ctx.opt.host_lanes != HostLaneSelect::kScalar) {
            n.lane = HostLane::kSimd;
            ++simd_lanes;
          }
          break;
        case nn::Op::kFlatten: n.kind = PlanKind::kFlatten; break;
        case nn::Op::kReLU: n.kind = PlanKind::kRelu; break;
        case nn::Op::kConv2d:
        case nn::Op::kLinear: {
          const pool::PooledLayer* pl = ctx.pooled_layer(n.graph_node);
          if (pl == nullptr) {
            n.kind = n.op == nn::Op::kConv2d ? PlanKind::kConvBaseline
                                             : PlanKind::kLinearBaseline;
          } else {
            n.kind = n.op == nn::Op::kConv2d ? PlanKind::kConvBitSerial
                                             : PlanKind::kLinearBitSerial;
            n.indices = kernels::PackedIndices::pack(*pl);
            if (choose_variant(pg, ctx, n)) ++cost_picked;
          }
          choose_lane(pg, ctx, n);
          if (n.lane == HostLane::kSimd) ++simd_lanes;
          break;
        }
        default:
          continue;  // unsupported ops were rejected by AssignActivationQuant
      }
      n.kind_assigned = true;
      ++decided;
    }
    if (detail != nullptr && (cost_picked > 0 || simd_lanes > 0)) {
      std::string d;
      if (cost_picked > 0) {
        d = std::to_string(cost_picked) + " pooled layer(s) priced by " +
            ctx.opt.cost_profile.name;
      }
      if (simd_lanes > 0) {
        if (!d.empty()) d += "; ";
        d += std::to_string(simd_lanes) + " layer(s) on the simd host lane";
      }
      *detail = std::move(d);
    }
    return decided;
  }

 private:
  /// The pre-cost-model layer policy (§4.2-4.3), priced only for
  /// BackendChoice::heuristic_cycles: precompute when filters exceed the
  /// pool size; cache when the filter loop amortizes the block copies; flash
  /// reads for very narrow layers. Linear layers were always cached.
  static BitSerialVariant heuristic_variant(const PassContext& ctx, const PlanNode& n,
                                            int pool_size) {
    if (n.op == nn::Op::kLinear) return BitSerialVariant::kCached;
    const int out_ch = ctx.graph.node(n.graph_node).conv.out_ch;
    if (kernels::should_precompute(out_ch, pool_size)) {
      return BitSerialVariant::kCachedPrecompute;
    }
    if (out_ch * 4 >= pool_size) return BitSerialVariant::kCached;
    return BitSerialVariant::kInputReuse;
  }

  /// Pick n.variant. Returns true when the cost model made the decision.
  bool choose_variant(const PlanGraph& pg, PassContext& ctx, PlanNode& n) const {
    if (ctx.opt.force_variant) {
      n.variant = ctx.opt.forced_variant;
      return false;
    }
    check(ctx.lut != nullptr, "SelectBackends: pooled layer without a LUT");

    // Price every variant (and the baseline kernel, for the report) under
    // the compile profile.
    const PlanNode& src = pg.node(n.inputs[0]);
    check(src.quant_assigned, "SelectBackends: producer of '" + n.name + "' lacks quantization");
    const int M = src.oq.bits;  // bit-serial loop depth = input bitwidth
    const sim::McuProfile& mcu = ctx.opt.cost_profile;

    BackendChoice choice;
    choice.layer = n.name;
    choice.kind = n.kind;
    double best = std::numeric_limits<double>::infinity();
    for (BitSerialVariant v : kAllVariants) {
      const double cycles = mcu.cycles(variant_cost(ctx, n, src, M, v));
      choice.candidates.push_back(
          {std::string("bitserial/") + kernels::variant_name(v), cycles, true});
      if (cycles < best) {
        best = cycles;
        n.variant = v;
      }
    }
    choice.chosen = std::string("bitserial/") + kernels::variant_name(n.variant);
    choice.chosen_cycles = best;
    choice.heuristic_cycles =
        mcu.cycles(variant_cost(ctx, n, src, M, heuristic_variant(ctx, n, ctx.lut->pool_size)));
    choice.candidates.push_back({"baseline int8", mcu.cycles(baseline_cost(ctx, n, src)), false});
    if (ctx.report != nullptr) ctx.report->backend_choices.push_back(std::move(choice));
    return true;
  }

  /// Assign n.lane for a conv/linear node (any of the four compute kinds).
  /// Forced modes short-circuit; kCostModel prices the scalar closed form of
  /// the *chosen* backend against its simd_* counterpart under
  /// CompileOptions::host_profile. kSimd is only ever assigned when
  /// kernels::simd::available() — a network compiled on a SIMD build still
  /// loads on a scalar-only one because KernelRegistry::find falls back, but
  /// the compile-time decision must not promise what this build lacks.
  void choose_lane(const PlanGraph& pg, PassContext& ctx, PlanNode& n) const {
    n.lane = HostLane::kScalar;
    double scalar_cyc = 0.0, simd_cyc = 0.0;
    if (kernels::simd::available() && ctx.opt.host_lanes != HostLaneSelect::kScalar) {
      if (ctx.opt.host_lanes == HostLaneSelect::kSimd) {
        n.lane = HostLane::kSimd;
      } else {
        const sim::McuProfile& host = ctx.opt.host_profile;
        const PlanNode& src = pg.node(n.inputs[0]);
        scalar_cyc = host.cycles(scalar_lane_cost(ctx, n, src));
        simd_cyc = host.cycles(simd_lane_cost(ctx, n, src));
        if (simd_cyc < scalar_cyc) n.lane = HostLane::kSimd;
      }
    }
    if (ctx.report != nullptr) {
      ctx.report->lane_choices.push_back({n.name, n.kind, n.lane, scalar_cyc, simd_cyc});
    }
  }

  /// Host-profile event counts of the scalar lane for the backend already
  /// chosen for `n` (baseline int8 or the winning bit-serial variant).
  static sim::CostCounter scalar_lane_cost(const PassContext& ctx, const PlanNode& n,
                                           const PlanNode& src) {
    if (n.kind == PlanKind::kConvBaseline || n.kind == PlanKind::kLinearBaseline) {
      return baseline_cost(ctx, n, src);
    }
    check(src.quant_assigned, "SelectBackends: producer of '" + n.name + "' lacks quantization");
    return variant_cost(ctx, n, src, src.oq.bits, n.variant);
  }

  static sim::CostCounter simd_lane_cost(const PassContext& ctx, const PlanNode& n,
                                         const PlanNode& src) {
    if (n.op == nn::Op::kLinear) {
      const int fin = static_cast<int>(elems(src.out_chw));
      if (n.kind == PlanKind::kLinearBaseline) {
        return sim::simd_linear_cost(fin, ctx.graph.node(n.graph_node).weight.dim(0));
      }
      return sim::simd_bitserial_linear_cost(fin, n.indices.out_ch, src.oq.bits, *ctx.lut);
    }
    const nn::ConvSpec& spec = ctx.graph.node(n.graph_node).conv;
    if (n.kind == PlanKind::kConvBaseline) {
      return sim::simd_conv_cost(spec, src.out_chw[1], src.out_chw[2]);
    }
    return sim::simd_bitserial_conv_cost(spec, src.out_chw[1], src.out_chw[2], src.oq.bits,
                                         *ctx.lut);
  }

  /// Event counts of the baseline int8 kernel for `n` (pooled or not).
  static sim::CostCounter baseline_cost(const PassContext& ctx, const PlanNode& n,
                                        const PlanNode& src) {
    if (n.op == nn::Op::kLinear) {
      const int fin = static_cast<int>(elems(src.out_chw));
      return sim::baseline_linear_cost(fin, ctx.graph.node(n.graph_node).weight.dim(0));
    }
    const nn::ConvSpec& spec = ctx.graph.node(n.graph_node).conv;
    return sim::baseline_conv_cost(spec, src.out_chw[1], src.out_chw[2]);
  }

  static sim::CostCounter variant_cost(const PassContext& ctx, const PlanNode& n,
                                       const PlanNode& src, int act_bits, BitSerialVariant v) {
    if (n.op == nn::Op::kLinear) {
      const int fin = static_cast<int>(elems(src.out_chw));
      return sim::bitserial_linear_cost(fin, act_bits, *ctx.lut, n.indices, v);
    }
    const nn::ConvSpec& spec = ctx.graph.node(n.graph_node).conv;
    return sim::bitserial_conv_cost(spec, src.out_chw[1], src.out_chw[2], act_bits, *ctx.lut,
                                    n.indices, v);
  }

  static std::size_t elems(const std::vector<int>& chw) {
    std::size_t n = 1;
    for (int d : chw) n *= static_cast<std::size_t>(d);
    return n;
  }
};

}  // namespace

std::unique_ptr<Pass> make_select_backends() { return std::make_unique<SelectBackends>(); }

}  // namespace bswp::runtime::lowering
