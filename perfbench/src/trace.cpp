#include "trace.h"

#include <chrono>
#include <set>
#include <stdexcept>
#include <utility>

#include "runtime/kernel_backend.h"

namespace perfbench {
namespace {

using bswp::runtime::CompiledNetwork;
using bswp::runtime::ExecContext;
using bswp::runtime::KernelBackend;
using bswp::runtime::LayerPlan;

class TimedBackend final : public KernelBackend {
 public:
  TimedBackend(const KernelBackend* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  /// The backend previously registered under this exact key, if any (when
  /// the plan resolved through a fallback key there is none to own: the
  /// registry still owns `inner_` under that other key).
  void adopt(std::unique_ptr<KernelBackend> previous) { owned_ = std::move(previous); }

  const char* name() const override { return inner_->name(); }
  void execute(const ExecContext& ctx) const override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->execute(ctx);
    stamp(ctx, t0);
  }
  void execute_batch(const ExecContext& ctx) const override {
    const auto t0 = std::chrono::steady_clock::now();
    inner_->execute_batch(ctx);
    stamp(ctx, t0);
  }
  std::size_t scratch_bytes(const CompiledNetwork& net, const LayerPlan& plan) const override {
    return inner_->scratch_bytes(net, plan);
  }
  std::size_t scratch_bytes_batch(const CompiledNetwork& net, const LayerPlan& plan,
                                  int batch) const override {
    return inner_->scratch_bytes_batch(net, plan, batch);
  }

 private:
  void stamp(const ExecContext& ctx, std::chrono::steady_clock::time_point t0) const {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - t0);
    tracer_->record(&ctx.plan, static_cast<std::uint64_t>(ns.count()));
  }

  const KernelBackend* inner_;
  Tracer* tracer_;
  std::unique_ptr<KernelBackend> owned_;
};

}  // namespace

void Tracer::add_network(const CompiledNetwork& net) {
  if (installed_) throw std::logic_error("Tracer::add_network after install()");
  for (const LayerPlan& p : net.plans) slot_of_.emplace(&p, slot_of_.size());
  nets_.push_back(&net);
}

void Tracer::install() {
  if (installed_) return;
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(slot_of_.size());
  for (std::size_t i = 0; i < slot_of_.size(); ++i) slots_[i].store(0);
  auto& registry = bswp::runtime::KernelRegistry::instance();
  std::set<std::pair<int, int>> wrapped;
  for (const CompiledNetwork* net : nets_) {
    for (const LayerPlan& p : net->plans) {
      const int key = bswp::runtime::backend_variant_key(p);
      if (!wrapped.insert({static_cast<int>(p.kind), key}).second) continue;
      const KernelBackend& inner = registry.resolve(p.kind, key);
      auto wrapper = std::make_unique<TimedBackend>(&inner, this);
      TimedBackend* w = wrapper.get();
      std::unique_ptr<KernelBackend> previous =
          registry.add(p.kind, key, std::move(wrapper), /*replace=*/true);
      w->adopt(std::move(previous));
    }
  }
  installed_ = true;
}

void Tracer::record(const LayerPlan* plan, std::uint64_t ns) {
  const auto it = slot_of_.find(plan);
  if (it != slot_of_.end()) slots_[it->second].fetch_add(ns, std::memory_order_relaxed);
}

std::vector<std::uint64_t> Tracer::snapshot(const CompiledNetwork& net) const {
  std::vector<std::uint64_t> out(net.plans.size(), 0);
  if (!installed_) return out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto it = slot_of_.find(&net.plans[i]);
    if (it != slot_of_.end()) out[i] = slots_[it->second].load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace perfbench
