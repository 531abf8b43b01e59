// The traced layer sweep: per-layer numbers every traced run reports,
// whatever its workload.
//
//  * setup layers: pool build, calibration, lowering, save and load of the
//    pooled ResNet-s, each timed around its public call (median of 3 builds);
//  * executor: warm run_view p50, batch-8 cost per image, arena size and heap
//    allocations per warm run, on untraced executors built before install();
//  * kernels: per-plan self time of a warm single-image run_view for every
//    served net, summed by (kind, lane); for pooled_a4 also each plan beside
//    its sim::host_profile() price and the run's exact event tallies;
//  * sim: the MC-large latency estimate.
//
// The traced and untraced pooled_a4 executors run interleaved, so
// trace.overhead_pct compares them under the same host conditions.
#include <map>

#include "runtime/executor.h"
#include "sweep.h"

namespace perfbench {
namespace {

using bswp::Tensor;
using bswp::runtime::CompiledNetwork;
using bswp::runtime::Executor;

constexpr int kSetupBuilds = 3;
constexpr double kNetSeconds = 0.75;  // timed runs per net
constexpr int kMinRuns = 50;
constexpr int kAllocRuns = 100;

/// Per-plan self time (us) and whole-run time (us) of repeated warm runs.
struct Tally {
  std::vector<std::vector<double>> plan_us;  // [plan][run]
  std::vector<double> e2e_us, self_sum_us;
};

void traced_run(const Tracer& tracer, const CompiledNetwork& net, Executor& ex, const Tensor& x,
                Tally& t) {
  const std::vector<std::uint64_t> before = tracer.snapshot(net);
  const Clock::time_point t0 = Clock::now();
  ex.run_view(x);
  const Clock::time_point t1 = Clock::now();
  const std::vector<std::uint64_t> after = tracer.snapshot(net);
  t.plan_us.resize(net.plans.size());
  double sum = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const double us = static_cast<double>(after[i] - before[i]) / 1000.0;
    t.plan_us[i].push_back(us);
    sum += us;
  }
  t.e2e_us.push_back(us_between(t0, t1));
  t.self_sum_us.push_back(sum);
}

/// kernels.<net>.<kind>.<lane>_us: per run, the self time of the net's plans
/// of one kind on one lane, summed; the median over runs.
void report_kinds(const std::string& key, const CompiledNetwork& net, const Tally& t,
                  Report& report) {
  std::map<std::string, std::vector<double>> rows;
  const std::size_t runs = t.e2e_us.size();
  for (std::size_t i = 0; i < net.plans.size(); ++i) {
    const auto& p = net.plans[i];
    std::vector<double>& row =
        rows[std::string(bswp::runtime::plan_kind_name(p.kind)) + "." +
             bswp::runtime::host_lane_name(p.lane)];
    row.resize(runs, 0.0);
    for (std::size_t r = 0; r < runs; ++r) row[r] += t.plan_us[i][r];
  }
  for (const auto& [name, per_run] : rows) {
    report.set("kernels." + key + "." + name + "_us", median(per_run), "us");
  }
}

}  // namespace

SweepBaseline prepare_sweep(const Prebuilt& pre) {
  SweepBaseline b;
  b.plain = std::make_unique<Executor>(pre.pooled.a4->network());
  b.plain_batch8 = std::make_unique<Executor>(pre.pooled.a4->network(), 8);
  return b;
}

void layer_sweep(const Args& args, const Prebuilt& pre, const Tracer& tracer, SweepBaseline& base,
                 Report& report, Ledger& ledger) {
  // --- setup layers ---------------------------------------------------------
  std::vector<double> pool_s, cal_s, compile_s, save_s, load_s;
  for (int i = 0; i < kSetupBuilds; ++i) {
    const PooledBuild b = build_pooled(args.work_dir, /*references=*/false);
    pool_s.push_back(b.pool_build_s);
    cal_s.push_back(b.calibrate_s);
    compile_s.push_back(b.compile_s);
    save_s.push_back(b.save_s);
    load_s.push_back(b.load_s);
  }
  report.set("pool.build_s", median(pool_s), "s");
  report.set("quant.calibrate_s", median(cal_s), "s");
  report.set("lowering.compile_s", median(compile_s), "s");
  report.set("serialize.save_s", median(save_s), "s");
  report.set("serialize.load_s", median(load_s), "s");

  const std::vector<Tensor> images = make_images(args.seed, 16);
  const auto nth = [&](std::size_t i) -> const Tensor& { return images[i % images.size()]; };

  // --- exact counts ---------------------------------------------------------
  for (const auto& [name, value] : pooled_exact_counts(pre.pooled, images[0])) {
    if (name == "flash_bytes" || name == "sram_bytes") continue;  // end-to-end metrics
    const bool bytes = name.find("bytes") != std::string::npos;
    report.set(name, value, name.find("_us") != std::string::npos ? "us"
                            : bytes                               ? "bytes"
                                                                  : "count");
    ledger.exact.push_back({name, value});
  }

  // --- executor: untraced, interleaved with the traced pooled_a4 runs -------
  const CompiledNetwork& a4 = pre.pooled.a4->network();
  Executor traced_a4(a4);
  for (int i = 0; i < 8; ++i) {
    base.plain->run_view(nth(i));
    traced_a4.run_view(nth(i));
  }
  const std::vector<bswp::sim::CostCounter> priced = traced_a4.profile_layers(images[0]);
  Tally t4;
  std::vector<double> plain_us;
  {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < kMinRuns || seconds_since(t0) < 2 * kNetSeconds; ++r) {
      const Clock::time_point p0 = Clock::now();
      base.plain->run_view(nth(r));
      plain_us.push_back(us_between(p0, Clock::now()));
      traced_run(tracer, a4, traced_a4, nth(r), t4);
    }
  }
  const std::uint64_t allocs0 = heap_allocs();
  for (int r = 0; r < kAllocRuns; ++r) base.plain->run_view(nth(static_cast<std::size_t>(r)));
  const double allocs = static_cast<double>(heap_allocs() - allocs0) / kAllocRuns;
  ledger.expect(allocs == 0, "sweep: warm run_view allocated");
  std::vector<double> batch8_us;
  {
    const std::span<const Tensor> eight(images.data(), 8);
    base.plain_batch8->run_batch_view(eight);
    const Clock::time_point t0 = Clock::now();
    while (batch8_us.size() < kMinRuns || seconds_since(t0) < kNetSeconds) {
      const Clock::time_point b0 = Clock::now();
      base.plain_batch8->run_batch_view(eight);
      batch8_us.push_back(us_between(b0, Clock::now()) / 8.0);
    }
  }
  const double plain_p50 = median(plain_us);
  report.set("executor.run_p50_us", plain_p50, "us");
  report.set("executor.batch8_us_per_img", median(batch8_us), "us");
  report.set("executor.arena_bytes", static_cast<double>(base.plain->arena_bytes()), "bytes");
  report.set("executor.allocs_per_run", allocs, "count");

  std::vector<double> overhead, ratio;
  for (std::size_t r = 0; r < t4.e2e_us.size(); ++r) {
    overhead.push_back(t4.e2e_us[r] - t4.self_sum_us[r]);
    ratio.push_back(t4.self_sum_us[r] / t4.e2e_us[r]);
  }
  report.set("executor.overhead_us", median(overhead), "us");
  report.set("trace.layer_sum_over_e2e", median(ratio), "ratio");
  report.set("trace.overhead_pct", (median(t4.e2e_us) / plain_p50 - 1.0) * 100.0, "%");

  // --- kernels --------------------------------------------------------------
  const bswp::sim::McuProfile host = bswp::sim::host_profile();
  report_kinds("pooled_a4", a4, t4, report);
  for (std::size_t i = 0; i < a4.plans.size(); ++i) {
    if (a4.plans[i].kind == bswp::runtime::PlanKind::kInput) continue;  // no events to price
    const std::string row = "kernels.pooled_a4.L" + std::to_string(i) + "-" + a4.plans[i].name;
    report.set(row + "_us", median(t4.plan_us[i]), "us");
    report.set(row + "_pred_us", host.seconds(priced[i]) * 1e6, "us");
  }

  std::vector<Tensor> tokens;
  for (int tok = 0; tok < 16; ++tok) {
    tokens.push_back(bswp::models::token_lm_input(pre.lm.opt, tok, nullptr));
  }
  const struct {
    const char* key;
    const bswp::Session* session;
    const std::vector<Tensor>* inputs;
  } nets[] = {
      {"pooled_a8", pre.pooled.a8.get(), &images},
      {"int8_resnet", pre.int8_resnet.served.get(), &images},
      {"tinyconv", pre.tinyconv.served.get(), &images},
      {"token_lm", pre.lm.net.served.get(), &tokens},
  };
  for (const auto& n : nets) {
    const CompiledNetwork& net = n.session->network();
    Executor ex(net);
    const std::vector<Tensor>& xs = *n.inputs;
    for (std::size_t i = 0; i < 8; ++i) ex.run_view(xs[i % xs.size()]);
    Tally t;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t r = 0; r < kMinRuns || seconds_since(t0) < kNetSeconds; ++r) {
      traced_run(tracer, net, ex, xs[r % xs.size()], t);
    }
    report_kinds(n.key, net, t, report);
  }
}

}  // namespace perfbench
