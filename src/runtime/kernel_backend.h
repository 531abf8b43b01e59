// Kernel-backend registry: the extension seam between the compiled network
// representation and the kernels that execute it.
//
// Every LayerPlan is executed by a KernelBackend looked up from the global
// KernelRegistry under a (PlanKind, variant) key. The baseline int8 kernels,
// the five bit-serial LUT variants and the XNOR binarized kernel all register
// here; new backends (SIMD hosts, sharded/cached server execution, hardware
// offload) plug in without touching the Executor loop in executor.cpp.
//
// Execution contract (arena model): execute_batch(ctx) writes the layer's
// result for ctx.batch images into `ctx.out` — a view over a
// MemoryPlanner-assigned slot of the Executor's arena — and draws any
// temporaries from `ctx.scratch`, a bump arena reset between layers. Batch 1
// is the single-image case; there is no separate per-image entry point. A
// backend must write every element of its output, fill the view's
// shape/quantization metadata, and report its peak scratch need via
// scratch_bytes_batch() so the Executor can size the arena once; a warm
// Executor run then performs zero heap allocations.
//
// Variant keying: plans whose kind carries a BitSerialVariant resolve with
// that variant; every other kind resolves with kAnyVariant. Lookup tries the
// exact (kind, variant) key first and falls back to (kind, kAnyVariant).
//
// Who resolves from here: every runtime::Executor — including the one-per
// worker×model executors the serving layers (runtime::ServingPool,
// runtime::InferenceServer) keep warm — resolves its backends once at
// construction and holds raw pointers for its lifetime. Register custom
// backends at setup, before executors exist; see the hot-swap caveat on
// add(). docs/architecture.md §6 places this seam in the full pipeline.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/arena.h"
#include "core/tensor.h"
#include "runtime/compressed_network.h"
#include "sim/cost_counter.h"

namespace bswp::runtime {

/// Everything a backend may need to execute one layer plan.
struct ExecContext {
  const CompiledNetwork& net;
  const LayerPlan& plan;
  /// The raw float image (only meaningful for PlanKind::kInput plans).
  const Tensor* image = nullptr;
  /// Views of the activations produced by the plan's inputs, in plan.inputs
  /// order (num_inputs entries).
  const kernels::QView* const* inputs = nullptr;
  int num_inputs = 0;
  /// Arena slot to write this plan's activation into. `out->data` and the
  /// slot capacity (plan.out_elems() elements) are fixed by the memory plan;
  /// the backend stamps shape and quantization metadata.
  kernels::QView* out = nullptr;
  /// Per-layer scratch (reset before each execute call).
  ScratchArena* scratch = nullptr;
  sim::CostCounter* counter = nullptr;
  /// Number of images in this call (1 for a single-image run). Image i of a
  /// plan p lives at `view.data + i * p.out_elems()` — the planned slot
  /// capacity is the per-image element stride, and the base views
  /// (`inputs`, `out`) describe image 0. For kInput plans, `image` points at
  /// a contiguous array of `batch` Tensors.
  int batch = 1;

  /// Activation produced by the plan's i-th input (image 0 when batched).
  const kernels::QView& input(int i) const { return *inputs[i]; }
  /// Per-image element stride of the plan's first input inside the arena.
  std::size_t input_stride() const {
    return net.plans[static_cast<std::size_t>(plan.inputs[0])].out_elems();
  }
};

/// One executable kernel implementation.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;
  /// Stable identifier, e.g. "baseline/conv" or "bitserial/cached".
  virtual const char* name() const = 0;
  /// Execute `ctx.plan` for `ctx.batch` images laid out contiguously at the
  /// per-image stride (see ExecContext::batch), writing the result into
  /// `ctx.out` and drawing temporaries from `ctx.scratch` (never the heap).
  /// Cores with stationary operands (weights, LUT residency, im2row tiles)
  /// amortize them across the batch; the result MUST stay byte-identical to
  /// running each image alone — same int32 accumulation order, same
  /// requant, same CostCounter tallies (exactly batch x the per-image
  /// counts). Per-image-only kinds loop with for_each_image().
  virtual void execute_batch(const ExecContext& ctx) const = 0;
  /// Upper bound on the scratch bytes execute_batch() draws for `batch`
  /// images of this plan. The MemoryPlanner sizes the Executor's scratch
  /// region from the maximum over all plans; an under-report makes the
  /// ScratchArena throw at run time. Default: 0 — correct only for a backend
  /// that draws nothing from ctx.scratch (an over-report merely wastes arena
  /// bytes).
  virtual std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                          int batch) const {
    (void)net;
    (void)plan;
    (void)batch;
    return 0;
  }

  // Batch-1 forwarders. Nothing in the library calls these, and no built-in
  // backend overrides them; they exist only for wrappers that override all
  // four methods and forward each to the backend they wrap (the per-plan
  // tracer in perfbench/src/trace.cpp).
  virtual void execute(const ExecContext& ctx) const {
    ExecContext one = ctx;
    one.batch = 1;
    execute_batch(one);
  }
  virtual std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan) const {
    return scratch_bytes_batch(net, plan, 1);
  }
};

/// Runs `run_one` once per image of `ctx`, each time with a batch-1 context
/// whose views (inputs, output, image) are shifted to that image and with
/// the scratch arena reset. The execute_batch() of kinds that have no
/// cross-image work to share (input, flatten, relu, maxpool, gap, add).
/// Allocation-free; the base output view ends up describing image 0.
void for_each_image(const ExecContext& ctx, void (*run_one)(const ExecContext&));

/// Wildcard variant key for plan kinds that carry no bit-serial variant.
constexpr int kAnyVariant = -1;

/// Key-space offset for HostLane::kSimd registrations. A SIMD backend for
/// bit-serial variant v registers under v + kSimdKeyOffset; SIMD backends for
/// kinds without a bit-serial variant register under kSimdKeyOffset + 0.
/// Scalar keys stay below the offset (there are only a handful of bit-serial
/// variants), so the two lanes never collide and find() can strip the offset
/// to fall back onto the scalar lane when no SIMD backend is registered.
constexpr int kSimdKeyOffset = 64;

/// Variant key a plan resolves under: the bit-serial variant for bit-serial
/// kinds (kAnyVariant otherwise), shifted into the SIMD key space when the
/// plan's host lane is kSimd.
inline int backend_variant_key(const LayerPlan& plan) {
  const bool bit_serial =
      plan.kind == PlanKind::kConvBitSerial || plan.kind == PlanKind::kLinearBitSerial;
  const int scalar_key = bit_serial ? static_cast<int>(plan.variant) : kAnyVariant;
  if (plan.lane != HostLane::kSimd) return scalar_key;
  return bit_serial ? scalar_key + kSimdKeyOffset : kSimdKeyOffset;
}

/// Process-global backend registry. Thread-safe; the built-in backends are
/// registered on first use of instance().
class KernelRegistry {
 public:
  static KernelRegistry& instance();

  /// Register `backend` under (kind, variant). Throws std::invalid_argument
  /// if the key is taken and `replace` is false (the default, so two
  /// libraries cannot silently fight over a key). Returns the previous
  /// backend when replacing (so tests can restore it). Replacing transfers
  /// ownership of the old backend to the caller while Executors hold raw
  /// pointers for their lifetime — hot-swapping requires quiescing
  /// in-flight inference first (registration normally happens at setup).
  std::unique_ptr<KernelBackend> add(PlanKind kind, int variant,
                                     std::unique_ptr<KernelBackend> backend,
                                     bool replace = false);

  /// Exact (kind, variant) match first. A SIMD-lane key (>= kSimdKeyOffset)
  /// that misses then retries its scalar-lane key (offset stripped) — so a
  /// plan compiled for the SIMD lane still executes, bit-identically, on a
  /// build without the SIMD family. Finally (kind, kAnyVariant); null if
  /// nothing matches.
  const KernelBackend* find(PlanKind kind, int variant) const;

  /// Like find, but throws std::runtime_error naming the missing key and the
  /// registered backends.
  const KernelBackend& resolve(PlanKind kind, int variant) const;

  /// "kind/variant -> name" lines for every registered backend.
  std::vector<std::string> registered() const;

  /// Per-plan resolution report for a compiled network: one
  /// "layer: kind/variant [lane] -> backend" line per plan, showing exactly
  /// which backend each layer executes on (after any scalar-lane fallback).
  std::vector<std::string> describe(const CompiledNetwork& net) const;

 private:
  KernelRegistry() = default;
  struct Key {
    int kind;
    int variant;
    bool operator<(const Key& o) const {
      return kind != o.kind ? kind < o.kind : variant < o.variant;
    }
  };
  mutable std::mutex mu_;
  std::vector<std::pair<Key, std::unique_ptr<KernelBackend>>> backends_;
};

namespace detail {
/// Built-in backend registration hooks (defined next to their kernels; called
/// once from KernelRegistry::instance so static-library linking cannot drop
/// them).
void register_structural_backends(KernelRegistry& r);
void register_baseline_backends(KernelRegistry& r);
void register_bitserial_backends(KernelRegistry& r);
void register_binary_backends(KernelRegistry& r);
void register_simd_backends(KernelRegistry& r);
}  // namespace detail

}  // namespace bswp::runtime
