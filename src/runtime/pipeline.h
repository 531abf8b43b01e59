// Compilation pipeline: float graph (+ optional weight pool) -> deployable
// CompiledNetwork (Figure 1 host side, minus training).
//
// Lowering is organized as an ordered pass pipeline over a mutable PlanGraph
// IR (src/runtime/lowering/): FoldBatchNorm -> FuseActivations ->
// EliminateDeadNodes -> AssignActivationQuant -> SelectBackends -> Legalize,
// after which the graph is frozen into the immutable CompiledNetwork
// artifact (container format unchanged). BatchNorm folds into per-channel
// *requantization* (never into weights — that would break pool sharing), and
// backend/variant choice is a cost-model query (sim/layer_cost.h) priced by
// CompileOptions::cost_profile rather than a hard-coded threshold.
//
// DEPRECATED as a public API: compile() is the implementation layer behind
// bswp::Deployment (src/api/bswp.h); new call sites should use the facade,
// which also keeps calibration act_bits in sync automatically.
#pragma once

#include "pool/codec.h"
#include "quant/calibrate.h"
#include "runtime/compressed_network.h"
#include "runtime/lowering/report.h"
#include "sim/mcu.h"

namespace bswp::runtime {

/// How SelectBackends assigns each compute layer's HostLane (the host-CPU
/// kernel family that will execute it; MCU latency estimates are unaffected).
enum class HostLaneSelect {
  /// Price HostLane::kScalar vs HostLane::kSimd per layer with
  /// sim/layer_cost.h's closed forms under CompileOptions::host_profile and
  /// keep the cheaper one (ties go to scalar). Never assigns kSimd when the
  /// SIMD backends are compiled out (BSWP_SIMD=OFF).
  kCostModel,
  /// Force every layer onto the scalar reference kernels (ablations, golden
  /// fixture regeneration).
  kScalar,
  /// Force every layer onto the SIMD kernels where they exist (falls back to
  /// scalar when compiled out).
  kSimd,
};

struct CompileOptions {
  int act_bits = 8;     // M: activation bitwidth of all hidden activations
  int weight_bits = 8;  // B_w for uncompressed layers and the pool quant
  int lut_bits = 8;     // B_l
  pool::LutOrder lut_order = pool::LutOrder::kInputOriented;
  /// MCU profile pricing the cost model's event counts: SelectBackends
  /// estimates every bit-serial variant with sim/layer_cost and keeps the
  /// cheapest under this profile.
  sim::McuProfile cost_profile = sim::mc_large();
  /// Host-lane policy: scalar vs SIMD kernel family per layer. Orthogonal to
  /// the bit-serial *variant* choice; every variant is bit-identical across
  /// lanes, so this only moves wall-clock time.
  HostLaneSelect host_lanes = HostLaneSelect::kCostModel;
  /// Profile pricing the scalar-vs-SIMD lane decision (kCostModel lanes).
  sim::McuProfile host_profile = sim::host_profile();
  /// Force one bit-serial variant for every pooled layer, linear included
  /// (ablations; all variants are bit-identical, they differ only in cost).
  bool force_variant = false;
  kernels::BitSerialVariant forced_variant = kernels::BitSerialVariant::kCached;
  /// Record per-pass PassTraceEntry rows in the CompileReport.
  bool pass_trace = false;
};

/// Compile `g` for integer execution. `pooled` may be null for a fully
/// uncompressed (CMSIS-baseline) build. `cal` must contain ranges for every
/// node of `g` (from quant::calibrate on the same graph). When `report` is
/// non-null it receives the backend-selection report and, if
/// `opt.pass_trace` is set, the pass trace.
CompiledNetwork compile(const nn::Graph& g, const pool::PooledNetwork* pooled,
                        const quant::CalibrationResult& cal, const CompileOptions& opt,
                        CompileReport* report = nullptr);

}  // namespace bswp::runtime
