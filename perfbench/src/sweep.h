// The traced layer sweep (see sweep.cpp).
#pragma once

#include <memory>

#include "runtime/executor.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// Untraced pooled_a4 executors (batch 1 and 8) for the sweep's executor
/// metrics and its tracing-overhead comparison. Build before
/// Tracer::install() so they keep the unwrapped backends.
struct SweepBaseline {
  std::unique_ptr<bswp::runtime::Executor> plain;
  std::unique_ptr<bswp::runtime::Executor> plain_batch8;
};
SweepBaseline prepare_sweep(const Prebuilt& pre);

void layer_sweep(const Args& args, const Prebuilt& pre, const Tracer& tracer,
                 SweepBaseline& base, Report& report, Ledger& ledger);

}  // namespace perfbench
