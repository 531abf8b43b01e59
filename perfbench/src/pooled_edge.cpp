// pooled-edge: the paper's deployment. A pooled ResNet-s is built, saved,
// loaded back and served from the loaded copy, in two phases that alternate
// in slices so both see the same host conditions:
//
//   A  one closed-loop client: warm Executor::run_view, batch 1, act_bits 4;
//   B  Session::run_batch on 64-image batches, 2 threads, act_bits 8.
//
// The bit-serial LUT kernels take nearly all the time here; act_bits 4 and 8
// are the two ends of the paper's run-time bitwidth tradeoff.
//
// This workload is memory-bound, and the host's memory contention switches
// between a slower and a faster state that each last seconds to minutes
// (README "Host drift"). Its windowed figures are therefore read at the
// slower state, which nearly every run contains: latencies at the
// kSlowSide quantile of their windows, throughput and attainment at
// 1 - kSlowSide. Set-ups are repeated between slices for the same reason.
#include <algorithm>
#include <memory>

#include "runtime/executor.h"
#include "workloads.h"

namespace perfbench {
namespace {

using bswp::QTensor;
using bswp::Tensor;

constexpr int kImages = 64;  // phase A cycles through these; phase B's batch
constexpr int kOfflineThreads = 2;
constexpr double kSliceSecondsA = 2.0;  // phase A gets two thirds of the run
constexpr double kSliceSecondsB = 1.0;
constexpr int kSetupEvery = 2;             // repeat the set-up after every 2nd B slice
constexpr double kEdgeLimitUs = 5000.0;    // phase A attainment limit
constexpr std::size_t kWindow = 500;       // phase A runs per p50 / attainment window
constexpr std::size_t kTailWindow = 1000;  // phase A runs per p99 window
constexpr std::size_t kBatchWindow = 3;    // phase B batches per throughput window
constexpr double kSlowSide = 0.9;

struct Edge {
  PooledBuild build;  // owns the sessions on an untraced run
  const PooledBuild* served = nullptr;
  std::unique_ptr<bswp::runtime::Executor> client;  // phase A's warm executor
};

/// Executor creation and first runs, so the timed phases start warm.
void warm_up(Edge& e, const std::vector<Tensor>& images) {
  e.client = std::make_unique<bswp::runtime::Executor>(e.served->a4->network());
  for (int i = 0; i < 8; ++i) e.client->run_view(images[static_cast<std::size_t>(i)]);
  e.served->a8->run_batch(images, kOfflineThreads);  // starts the serving-pool workers
}

Clock::time_point after(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

}  // namespace

void pooled_edge(const Args& args, const Prebuilt* pre, Report& report, Ledger& ledger) {
  const std::vector<Tensor> images = make_images(args.seed, kImages);

  // One complete set-up from scratch, timed. Every exact count must come out
  // the same each time.
  std::vector<double> setup_s;
  std::vector<std::pair<std::string, double>> counts;
  const auto set_up = [&](Edge& e) {
    const Clock::time_point t0 = Clock::now();
    e.build = build_pooled(args.work_dir, /*references=*/true);
    e.served = &e.build;
    warm_up(e, images);
    setup_s.push_back(seconds_since(t0) - e.build.reference_s);
    const auto c = pooled_exact_counts(e.build, images[0]);
    if (counts.empty()) counts = c;
    ledger.expect(c == counts, "pooled-edge: exact counts differ between set-ups");
  };

  Edge e;
  if (pre == nullptr) {
    set_up(e);
  } else {
    e.served = &pre->pooled;
    warm_up(e, images);
  }
  const std::vector<QTensor> want4 = reference_outputs(*e.served->ref_a4, images, 1);
  const std::vector<QTensor> want8 = reference_outputs(*e.served->ref_a8, images, 1);

  std::vector<double> lat_us;
  lat_us.reserve(1 << 20);
  std::vector<double> batch_ips, img_p50_us;
  std::uint64_t allocs = 0;
  PhaseCounts a, b;
  int b_slices = 0;
  Clock::time_point end = after(args.seconds);
  for (bool phase_a = true; a.sent == 0 || b.sent == 0 || Clock::now() < end;
       phase_a = !phase_a) {
    const Clock::time_point slice_end =
        std::min(end, after(phase_a ? kSliceSecondsA : kSliceSecondsB));
    do {
      if (phase_a) {
        const std::size_t i = static_cast<std::size_t>(a.sent) % images.size();
        const std::uint64_t allocs0 = heap_allocs();
        const Clock::time_point t0 = Clock::now();
        const bswp::kernels::QView& out = e.client->run_view(images[i]);
        const Clock::time_point t1 = Clock::now();
        allocs += heap_allocs() - allocs0;
        lat_us.push_back(us_between(t0, t1));
        ++a.sent;
        if (same_output(out, want4[i])) {
          ++a.succeeded;
        } else {
          ++ledger.mismatches;
        }
      } else {
        const Clock::time_point t0 = Clock::now();
        const bswp::BatchResult r = e.served->a8->run_batch_stats(images, kOfflineThreads);
        batch_ips.push_back(static_cast<double>(images.size()) / seconds_since(t0));
        img_p50_us.push_back(r.stats.latency.p50_us);
        for (std::size_t i = 0; i < images.size(); ++i) {
          ++b.sent;
          if (same_output(r.logits[i], want8[i])) {
            ++b.succeeded;
          } else {
            ++ledger.mismatches;
          }
        }
      }
    } while (Clock::now() < slice_end);
    if (!phase_a && pre == nullptr && ++b_slices % kSetupEvery == 0 && Clock::now() < end) {
      // A set-up between slices; the phases keep their full measuring time.
      const Clock::time_point t0 = Clock::now();
      Edge scratch;
      set_up(scratch);
      end += Clock::now() - t0;
    }
  }

  ledger.attempted += static_cast<std::uint64_t>(a.sent + b.sent);
  ledger.expect(allocs == 0, "pooled-edge: warm run_view allocated");
  if (pre == nullptr) {
    report.set("setup_s", median(setup_s), "s");
    ledger.exact.insert(ledger.exact.end(), counts.begin(), counts.end());
    for (const auto& [name, value] : counts) {
      if (name == "flash_bytes" || name == "sram_bytes") report.set(name, value, "bytes");
    }
  }
  report.set("p50_us", percentile(window_percentiles(lat_us, kWindow, 0.50), kSlowSide), "us");
  report.set("throughput_per_s",
             percentile(window_percentiles(batch_ips, kBatchWindow, 0.5), 1.0 - kSlowSide), "1/s");
  report.set("attainment",
             percentile(window_shares_within(lat_us, kWindow, kEdgeLimitUs), 1.0 - kSlowSide),
             "share");
  report.set("serving_pool.img_p50_us", median(img_p50_us), "us");
  a.p99_us = median(window_percentiles(lat_us, kTailWindow, 0.99));
  report_phase(report, "phase_a", a);
  report_phase(report, "phase_b", b);
  log("pooled-edge: %zu runs (A), %zu batches (B), %zu set-ups", lat_us.size(), batch_ips.size(),
      setup_s.size());
}

}  // namespace perfbench
