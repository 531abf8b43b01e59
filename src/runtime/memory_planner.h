// Liveness-driven static memory planning for compiled networks.
//
// The planner walks the plan list in execution order, computes each
// activation's live interval (producer through last consumer), and assigns
// byte offsets in a single arena with a coalescing best-fit free list, so
// buffers whose lifetimes do not overlap share storage. The same algorithm
// serves two sizing models:
//
//   plan_host — what the Executor actually allocates: activations stored as
//     int16 elements plus each backend's self-reported scratch high-water.
//   plan_mcu  — what a firmware deployment would place in SRAM: M-bit
//     activations stored bit-packed, in-place techniques (rolling conv,
//     accumulate-in-place add) applied where liveness proves them sound,
//     plus the modeled kernel scratch (im2col column buffer, LUT cache,
//     packed XNOR operands).
//
// runtime::footprint() derives its peak-SRAM number from plan_mcu, so the
// simulator's memory model and the engine's arena are one artifact: the cost
// model cannot drift from what execution does again.
#pragma once

#include <cstddef>
#include <vector>

#include "runtime/compressed_network.h"
#include "sim/mcu.h"

namespace bswp::runtime {

class KernelBackend;

/// One activation buffer's placement in the arena.
struct BufferPlacement {
  std::size_t offset = 0;  // byte offset of the buffer in the arena
  std::size_t bytes = 0;   // rounded-up (aligned) buffer size
  int def = -1;            // producing plan index
  int last_use = -1;       // last plan index that reads this buffer
  /// Plan index whose buffer this placement overwrites in place (-1 = none).
  /// Only set when the input dies at this plan; the two placements may then
  /// legally share bytes (rolling conv, accumulate-in-place add, ...).
  int inplace_of = -1;
};

struct MemoryPlan {
  std::vector<BufferPlacement> buffers;  // indexed by plan id
  std::size_t act_bytes = 0;             // activation-region high-water mark
  std::size_t scratch_bytes = 0;         // max per-plan scratch requirement
  /// Peak SRAM / arena size: activations and scratch live side by side.
  std::size_t peak_bytes() const { return act_bytes + scratch_bytes; }
};

class MemoryPlanner {
 public:
  /// Buffer alignment inside the arena (also keeps per-buffer cache lines
  /// from straddling two logical buffers).
  static constexpr std::size_t kAlign = 64;

  /// Plan the host Executor's arena: int16 activation slots + the resolved
  /// backends' scratch_bytes_batch(batch) high-water. `backends` must
  /// parallel net.plans. Every activation slot holds `batch` images laid out
  /// at the per-image stride (plan.out_elems() elements) — liveness and
  /// in-place logic do not depend on the batch, the slots just scale by it.
  static MemoryPlan plan_host(const CompiledNetwork& net,
                              const std::vector<const KernelBackend*>& backends, int batch = 1);

  /// Plan the modeled MCU deployment: bit-packed M-bit activations +
  /// modeled kernel scratch (feeds runtime::footprint()). Models the
  /// standard memory-starved-MCU implementation techniques as in-place
  /// aliasing hints that the planner honors only when sound (input dies at
  /// the consuming plan): rolling in-place convolution, accumulate-in-place
  /// residual add, in-place relu/flatten/maxpool.
  static MemoryPlan plan_mcu(const CompiledNetwork& net);

  /// Core algorithm: liveness analysis + best-fit offset assignment over
  /// per-plan output sizes (`out_bytes`) and scratch needs (`scratch`).
  /// `inplace_input`, when given, holds per plan the producing-plan index
  /// whose buffer this plan may overwrite (or -1); the hint is applied only
  /// if that buffer's last use is this plan.
  static MemoryPlan plan(const CompiledNetwork& net, const std::vector<std::size_t>& out_bytes,
                         const std::vector<std::size_t>& scratch,
                         const std::vector<int>* inplace_input = nullptr);

  /// Per-plan last consumer index (the final plan is pinned past the end).
  static std::vector<int> last_uses(const CompiledNetwork& net);
};

/// Static flash image + peak SRAM of a deployment (used against Table 2
/// budgets; uncompressed big networks overflow flash — the "/" rows of
/// Table 7). SRAM is the MCU memory plan's arena peak.
sim::MemoryFootprint footprint(const CompiledNetwork& net);

}  // namespace bswp::runtime
