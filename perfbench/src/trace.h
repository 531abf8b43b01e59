// Per-plan kernel self time, measured from outside the program.
//
// The tracer wraps every kernel backend that a set of compiled networks'
// plans resolve to: for each plan it calls KernelRegistry::add(kind,
// backend_variant_key(plan), wrapper, /*replace=*/true) and keeps the
// backend that add() hands back alive inside the wrapper. A wrapper forwards
// execute, execute_batch, scratch_bytes and scratch_bytes_batch unchanged —
// arena sizing and the batched cores stay exactly as they were — and adds
// the wall time of each execute call to the plan's slot. Kernels call no
// other backend, so the recorded time is the plan's self time.
//
// Install before any Executor meant to be traced exists: executors resolve
// their backends once, at construction. An Executor built before install()
// keeps the unwrapped backends, which is how the traced run measures its own
// overhead against an untraced executor in the same process.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/compressed_network.h"

namespace perfbench {

class Tracer {
 public:
  /// Register every plan of `net` for timing. All networks must be added
  /// before install(); `net` must outlive the tracer's use.
  void add_network(const bswp::runtime::CompiledNetwork& net);
  /// Wrap each distinct (kind, variant key) the registered plans resolve to.
  void install();
  /// Nanoseconds recorded so far for every plan of `net`, in plan order.
  std::vector<std::uint64_t> snapshot(const bswp::runtime::CompiledNetwork& net) const;

  /// Called by the wrappers.
  void record(const bswp::runtime::LayerPlan* plan, std::uint64_t ns);

 private:
  bool installed_ = false;
  std::unordered_map<const bswp::runtime::LayerPlan*, std::size_t> slot_of_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;  // one per registered plan
  std::vector<const bswp::runtime::CompiledNetwork*> nets_;
};

}  // namespace perfbench
