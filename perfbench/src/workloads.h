// The three workloads. Each fills the end-to-end metrics it owns and the
// per-layer metrics of the serving layers it exercises; run.py selects the
// set BENCHMARK.json names for the run's --trace mode.
//
// `pre` is null on an untraced run: the workload then builds its networks
// itself, several times, and reports the median as setup_s. A traced run
// passes networks built before the tracer was installed (the tracer must
// know every plan before any Executor exists) and reports no setup_s.
#pragma once

#include "harness.h"
#include "nets.h"

namespace perfbench {

/// Every network any workload or the traced layer sweep serves.
struct Prebuilt {
  PooledBuild pooled;
  ServedNet int8_resnet;
  ServedNet tinyconv;
  TokenLm lm;
};

void pooled_edge(const Args& args, const Prebuilt* pre, Report& report, Ledger& ledger);
void cluster_open(const Args& args, const Prebuilt* pre, Report& report, Ledger& ledger);
void lm_sessions(const Args& args, const Prebuilt* pre, Report& report, Ledger& ledger);

/// Generator counters of one phase, as gen.<phase>.* per-layer metrics.
struct PhaseCounts {
  double sent = 0, succeeded = 0, failed = 0;
  double p99_us = 0;                      // the phase's tail latency
  double lag_p50_us = 0, lag_max_us = 0;  // open loops only
};
void report_phase(Report& report, const char* phase, const PhaseCounts& c);

/// The default token LM geometry the lm-sessions workload serves, and the
/// weight seed of both LMs.
bswp::models::TokenLmOptions default_lm();
constexpr std::uint64_t kLmWeightSeed = 7;

}  // namespace perfbench
