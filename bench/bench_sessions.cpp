// Session-serving benchmark: warm per-session decode throughput and
// concurrent-session scaling (see docs/sessions.md).
//
// Two sections:
//
//  1. Decode throughput: S concurrent sessions each greedy-decode N tokens
//     from a short prompt, keeping the recurrent state per session — one
//     decode step per token.
//
//  2. Concurrent-session scaling: aggregate tokens/s, per-token p50/p99
//     and the session-affinity hit rate as the session count grows over a
//     fixed 2-worker server. Decode chains are sequential per session, so
//     aggregate throughput should grow with sessions until the workers
//     saturate; the affinity hit rate shows sticky placement holding (or
//     honestly degrading) under contention.
//
// Emits BENCH_sessions.json (bench::JsonWriter) for scripts/
// bench_compare.sh. Numbers under smoke mode (BSWP_BENCH_SMOKE=1, CI) are
// meaningless — only the code paths matter.
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <vector>

#include "common.h"
#include "quant/calibrate.h"
#include "runtime/pipeline.h"
#include "runtime/sessions/session_manager.h"

namespace bswp::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic token LM: fixed-seed weights, calibrated on its own
/// greedy rollouts (the same recipe as tests/test_sessions.cpp).
Session compile_lm(const models::TokenLmOptions& lm, std::uint64_t seed) {
  nn::Graph g = models::build_token_lm(lm);
  Rng rng(seed);
  g.init_weights(rng);
  models::TokenLmRollout cal_ds(g, lm, /*sequences=*/4, /*steps=*/8, seed + 1);
  quant::CalibrateOptions co;
  co.num_samples = cal_ds.size();
  co.batch_size = 8;
  quant::CalibrationResult cal = quant::calibrate(g, cal_ds, co);
  return Session(runtime::compile(g, nullptr, cal, runtime::CompileOptions{}));
}

struct SweepPoint {
  double tokens_per_s = 0.0;   // aggregate across sessions, wall-clock
  double p50_us = 0.0;         // per-token end-to-end
  double p99_us = 0.0;
  double affinity_hit_rate = 0.0;
};

/// S sessions decode `tokens` tokens each, concurrently, on a fresh
/// 2-worker SessionServer; returns the aggregate throughput and the
/// manager's latency/affinity rollup.
SweepPoint run_sessions(const Session& session, const models::TokenLmOptions& lm, int sessions,
                        int tokens) {
  runtime::ServerOptions so;
  so.workers = 2;
  bswp::SessionServer srv(so);
  srv.add("lm", session, lm);

  // Warm the model's arena executors so the timed region measures decode
  // steady state, not first-touch compilation.
  {
    const runtime::SessionId w = srv.open("lm");
    srv.generate(w, {1, 2}, 2);
    srv.close(w);
  }

  const std::vector<int> prompt = {1, 2, 3, 4};
  std::vector<runtime::SessionId> ids;
  for (int s = 0; s < sessions; ++s) ids.push_back(srv.open("lm"));

  const Clock::time_point t0 = Clock::now();
  std::vector<std::future<runtime::GenerationResult>> futs;
  for (int s = 0; s < sessions; ++s) {
    futs.push_back(srv.generate_async(ids[static_cast<std::size_t>(s)], prompt, tokens));
  }
  std::uint64_t emitted = 0;
  for (auto& f : futs) emitted += f.get().tokens.size();
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();

  const runtime::SessionServingStats st = srv.stats().sessions;
  SweepPoint p;
  p.tokens_per_s = wall > 0.0 ? static_cast<double>(emitted) / wall : 0.0;
  p.p50_us = st.token_latency.p50_us;
  p.p99_us = st.token_latency.p99_us;
  p.affinity_hit_rate = st.affinity_hit_rate;
  return p;
}

int run_bench() {
  models::TokenLmOptions lm;
  lm.vocab = 64;
  lm.embed_dim = 16;
  lm.state_dim = 32;
  lm.hidden_dim = 32;
  const Session session = compile_lm(lm, 7);

  JsonWriter jw;
  jw.add("smoke_mode", smoke_mode());
  const int tokens = smoke_scaled(48, 8);
  jw.add("tokens_per_session", tokens);

  // --- Section 1: decode throughput with per-session state ------------------
  print_header("bench_sessions: decode throughput with per-session state");
  for (int sessions : {1, 4}) {
    const SweepPoint warm = run_sessions(session, lm, sessions, tokens);
    std::printf("%d session(s) x %d tokens: %8.0f tok/s\n", sessions, tokens,
                warm.tokens_per_s);
    jw.add("warm_tokens_per_s_s" + std::to_string(sessions), warm.tokens_per_s);
  }

  // --- Section 2: concurrent-session scaling -------------------------------
  print_header("bench_sessions: concurrent-session scaling (2 workers)");
  for (int sessions : {1, 2, 4, 8}) {
    const SweepPoint p = run_sessions(session, lm, sessions, tokens);
    std::printf("%d session(s): %8.0f tok/s, per-token p50 %6.0f us, p99 %6.0f us, "
                "affinity hit rate %.0f%%\n",
                sessions, p.tokens_per_s, p.p50_us, p.p99_us, 100.0 * p.affinity_hit_rate);
    const std::string sfx = "_s" + std::to_string(sessions);
    jw.add("scale_tokens_per_s" + sfx, p.tokens_per_s);
    jw.add("scale_token_p50_us" + sfx, p.p50_us);
    jw.add("scale_token_p99_us" + sfx, p.p99_us);
    jw.add("scale_affinity_hit_rate" + sfx, p.affinity_hit_rate);
  }

  jw.write("BENCH_sessions.json");
  return 0;
}

}  // namespace
}  // namespace bswp::bench

int main() { return bswp::bench::run_bench(); }
