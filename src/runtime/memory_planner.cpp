#include "runtime/memory_planner.h"

#include <algorithm>

#include "runtime/kernel_backend.h"

namespace bswp::runtime {

namespace {

constexpr std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}

/// Coalescing free list over [offset, offset+size) byte ranges.
class FreeList {
 public:
  /// Best-fit allocation; returns true and sets `offset` if a range fits.
  bool take(std::size_t size, std::size_t* offset) {
    std::size_t best = ranges_.size();
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      if (ranges_[i].size >= size &&
          (best == ranges_.size() || ranges_[i].size < ranges_[best].size)) {
        best = i;
      }
    }
    if (best == ranges_.size()) return false;
    *offset = ranges_[best].offset;
    ranges_[best].offset += size;
    ranges_[best].size -= size;
    if (ranges_[best].size == 0) ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(best));
    return true;
  }

  /// Allocation that may grow the arena: place at a free range ending
  /// exactly at `*high_water` (paying only the difference), or at the high
  /// water itself. Used when no existing range fits outright.
  void take_end(std::size_t size, std::size_t* offset, std::size_t* high_water) {
    if (!ranges_.empty()) {
      Range& tail = ranges_.back();
      if (tail.offset + tail.size == *high_water) {
        *offset = tail.offset;
        *high_water = tail.offset + size;
        ranges_.pop_back();
        return;
      }
    }
    *offset = *high_water;
    *high_water += size;
  }

  /// Return a range, merging with adjacent free ranges.
  void release(std::size_t offset, std::size_t size) {
    if (size == 0) return;
    Range r{offset, size};
    auto it = std::lower_bound(
        ranges_.begin(), ranges_.end(), r,
        [](const Range& a, const Range& b) { return a.offset < b.offset; });
    it = ranges_.insert(it, r);
    // Merge with successor, then predecessor.
    auto next = it + 1;
    if (next != ranges_.end() && it->offset + it->size == next->offset) {
      it->size += next->size;
      ranges_.erase(next);
    }
    if (it != ranges_.begin()) {
      auto prev = it - 1;
      if (prev->offset + prev->size == it->offset) {
        prev->size += it->size;
        ranges_.erase(it);
      }
    }
  }

 private:
  struct Range {
    std::size_t offset;
    std::size_t size;
  };
  std::vector<Range> ranges_;  // sorted by offset, non-adjacent
};

}  // namespace

std::vector<int> MemoryPlanner::last_uses(const CompiledNetwork& net) {
  const int n = static_cast<int>(net.plans.size());
  std::vector<int> last(static_cast<std::size_t>(n));
  for (int p = 0; p < n; ++p) {
    last[static_cast<std::size_t>(p)] = p;
    for (int in : net.plans[static_cast<std::size_t>(p)].inputs) {
      check(in >= 0 && in < p, "MemoryPlanner: plan inputs must precede the plan");
      last[static_cast<std::size_t>(in)] = std::max(last[static_cast<std::size_t>(in)], p);
    }
  }
  // The network output is live past the end — the caller reads it after
  // run() returns.
  if (n > 0) last[static_cast<std::size_t>(n - 1)] = n;
  return last;
}

MemoryPlan MemoryPlanner::plan(const CompiledNetwork& net,
                               const std::vector<std::size_t>& out_bytes,
                               const std::vector<std::size_t>& scratch,
                               const std::vector<int>* inplace_input) {
  const int n = static_cast<int>(net.plans.size());
  check(static_cast<int>(out_bytes.size()) == n && static_cast<int>(scratch.size()) == n,
        "MemoryPlanner: sizing vectors do not match the network");
  check(inplace_input == nullptr || static_cast<int>(inplace_input->size()) == n,
        "MemoryPlanner: inplace hints do not match the network");
  MemoryPlan mp;
  mp.buffers.resize(static_cast<std::size_t>(n));

  // Liveness: a buffer stays live from its producer through its last
  // consumer.
  const std::vector<int> last = last_uses(net);
  for (int p = 0; p < n; ++p) {
    mp.buffers[static_cast<std::size_t>(p)].def = p;
    mp.buffers[static_cast<std::size_t>(p)].last_use = last[static_cast<std::size_t>(p)];
  }

  // Offset assignment: release dead buffers before placing each output, then
  // best-fit into a freed slot or extend the arena. An applicable in-place
  // hint (the hinted input dies at this very plan) releases that input
  // early, so the new buffer may overlay it — the plan's execution consumes
  // the input as it overwrites it.
  FreeList free_list;
  std::vector<bool> released(static_cast<std::size_t>(n), false);
  std::size_t high_water = 0;
  for (int p = 0; p < n; ++p) {
    for (int q = 0; q < p; ++q) {
      if (released[static_cast<std::size_t>(q)]) continue;
      const BufferPlacement& dead = mp.buffers[static_cast<std::size_t>(q)];
      if (dead.last_use < p) {
        free_list.release(dead.offset, dead.bytes);
        released[static_cast<std::size_t>(q)] = true;
      }
    }
    BufferPlacement& b = mp.buffers[static_cast<std::size_t>(p)];
    if (inplace_input != nullptr) {
      const int q = (*inplace_input)[static_cast<std::size_t>(p)];
      if (q >= 0 && mp.buffers[static_cast<std::size_t>(q)].last_use == p &&
          !released[static_cast<std::size_t>(q)]) {
        const BufferPlacement& victim = mp.buffers[static_cast<std::size_t>(q)];
        free_list.release(victim.offset, victim.bytes);
        released[static_cast<std::size_t>(q)] = true;
        b.inplace_of = q;
      }
    }
    b.bytes = round_up(std::max<std::size_t>(out_bytes[static_cast<std::size_t>(p)], 1), kAlign);
    if (!free_list.take(b.bytes, &b.offset)) {
      free_list.take_end(b.bytes, &b.offset, &high_water);
    }
    mp.scratch_bytes = std::max(mp.scratch_bytes, scratch[static_cast<std::size_t>(p)]);
  }
  mp.act_bytes = high_water;
  return mp;
}

MemoryPlan MemoryPlanner::plan_host(const CompiledNetwork& net,
                                    const std::vector<const KernelBackend*>& backends, int batch) {
  check(backends.size() == net.plans.size(), "MemoryPlanner: backends do not match the network");
  check(batch >= 1, "MemoryPlanner: batch must be >= 1");
  std::vector<std::size_t> out_bytes(net.plans.size());
  std::vector<std::size_t> scratch(net.plans.size());
  for (std::size_t p = 0; p < net.plans.size(); ++p) {
    out_bytes[p] =
        net.plans[p].out_elems() * sizeof(int16_t) * static_cast<std::size_t>(batch);
    scratch[p] = backends[p]->scratch_bytes_batch(net, net.plans[p], batch);
  }
  return plan(net, out_bytes, scratch);
}

MemoryPlan MemoryPlanner::plan_mcu(const CompiledNetwork& net) {
  // Deployment sizing: M-bit activations are stored bit-packed (the whole
  // point of the bit-serial kernels — precision is a memory knob too), and
  // the standard memory-starved-MCU techniques documented in DESIGN.md are
  // modeled as in-place hints, applied by the planner only where they are
  // sound (the overwritten input's last consumer is this plan):
  //  * rolling in-place convolution: input rows die as output rows are
  //    produced, so the shared slot holds max(in, out) plus ~(kh+1) rows;
  //  * residual adds accumulate in place over one dying operand;
  //  * relu / flatten / maxpool rewrite their input in place.
  const std::vector<int> last = last_uses(net);
  auto packed_bytes = [](const LayerPlan& p) {
    return (p.out_elems() * static_cast<std::size_t>(p.out.bits) + 7) / 8;
  };
  std::vector<std::size_t> out_bytes(net.plans.size());
  std::vector<std::size_t> scratch(net.plans.size());
  std::vector<int> inplace(net.plans.size(), -1);
  for (std::size_t p = 0; p < net.plans.size(); ++p) {
    const LayerPlan& plan = net.plans[p];
    out_bytes[p] = packed_bytes(plan);
    const int src = plan.inputs.empty() ? -1 : plan.inputs[0];
    const bool src_dies =
        src >= 0 && last[static_cast<std::size_t>(src)] == static_cast<int>(p);
    switch (plan.kind) {
      case PlanKind::kConvBaseline:
      case PlanKind::kConvBitSerial: {
        if (src_dies) {
          // Rolling window: the slot carries the larger map plus the live
          // band of output rows not yet claimed from the input.
          const std::size_t in_b = packed_bytes(net.plans[static_cast<std::size_t>(src)]);
          const std::size_t out_b = out_bytes[p];
          const int out_h = plan.out_chw.size() == 3 ? plan.out_chw[1] : 1;
          const std::size_t row = out_h > 0 ? out_b / static_cast<std::size_t>(out_h) : out_b;
          out_bytes[p] = std::max(in_b, out_b) +
                         std::min(out_b, static_cast<std::size_t>(plan.spec.kh + 1) * row);
          inplace[p] = src;
        }
        scratch[p] =
            plan.kind == PlanKind::kConvBaseline
                ? kernels::baseline_conv_scratch_bytes(plan.spec)
                : kernels::bitserial_scratch_bytes(plan.spec, net.lut, plan.variant, net.act_bits);
        break;
      }
      case PlanKind::kLinearBitSerial: {
        nn::ConvSpec fc_spec;
        fc_spec.out_ch = plan.indices.out_ch;
        scratch[p] = kernels::bitserial_scratch_bytes(fc_spec, net.lut, plan.variant, net.act_bits);
        break;
      }
      case PlanKind::kConvBinary: {
        // XNOR conv scratch: the packed +-1 input map (1 bit/lane,
        // word-padded along channels) staged next to the unpacked input.
        const LayerPlan& src_plan = net.plans[static_cast<std::size_t>(plan.inputs[0])];
        const int in_ch = plan.spec.in_ch;
        const int words = (in_ch + 31) / 32;
        const std::size_t in_hw =
            in_ch > 0 ? src_plan.out_elems() / static_cast<std::size_t>(in_ch) : 0;
        scratch[p] = in_hw * static_cast<std::size_t>(words) * 4;
        break;
      }
      case PlanKind::kAdd: {
        if (src_dies) {
          inplace[p] = src;
        } else if (plan.inputs.size() > 1 &&
                   last[static_cast<std::size_t>(plan.inputs[1])] == static_cast<int>(p)) {
          inplace[p] = plan.inputs[1];
        }
        break;
      }
      case PlanKind::kRelu:
      case PlanKind::kFlatten:
      case PlanKind::kMaxPool:
        if (src_dies) inplace[p] = src;
        break;
      default:
        break;
    }
  }
  return plan(net, out_bytes, scratch, &inplace);
}

sim::MemoryFootprint footprint(const CompiledNetwork& net) {
  sim::MemoryFootprint fp;
  if (net.has_lut) fp.flash_bytes += net.lut.storage_bytes();

  // Flash image: weights / indices / per-channel requant constants (scale +
  // bias as 4-byte words each, the fixed-point multiplier pairs of a real
  // deployment).
  for (const auto& plan : net.plans) {
    switch (plan.kind) {
      case PlanKind::kConvBaseline:
      case PlanKind::kLinearBaseline:
        fp.flash_bytes += plan.qweights.size();  // int8 weights, 1 byte each
        fp.flash_bytes += plan.rq.scale.size() * 8;
        break;
      case PlanKind::kConvBitSerial:
      case PlanKind::kLinearBitSerial:
        fp.flash_bytes += plan.indices.storage_bytes();
        fp.flash_bytes += plan.rq.scale.size() * 8;
        break;
      case PlanKind::kConvBinary:
        fp.flash_bytes += (plan.qweights.size() + 7) / 8;  // 1-bit packed signs
        fp.flash_bytes += plan.rq.scale.size() * 8;
        break;
      default:
        break;
    }
  }

  // Peak SRAM: the deployment arena the MemoryPlanner would lay out on the
  // device — liveness-shared activation slots plus the per-kernel scratch
  // high-water mark. This is the same plan the Executor executes against
  // (host-sized), so the simulated budget can no longer drift from the
  // engine's actual memory behavior.
  fp.sram_bytes = MemoryPlanner::plan_mcu(net).peak_bytes();
  return fp;
}

}  // namespace bswp::runtime
