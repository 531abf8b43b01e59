// Session serving: multi-step stateful token generation on top of the
// async InferenceServer.
//
// The server below this layer is one-shot: a request goes in, logits come
// out, nothing persists. Autoregressive generation is the opposite shape —
// a session's decode steps form a sequential dependency chain (step t+1's
// input contains step t's output state), so steady-state throughput is
// bounded by per-step dispatch latency rather than batch formation. The
// SessionManager owns that chain:
//
//   open_session(model) ──> SessionId, zero recurrent state
//   generate(id, prompt, n) ──> greedy decode loop:
//       token_lm_input(prev token, state)            (models/zoo.h)
//         └─> InferenceServer::submit(model, input,
//               {kHigh, affinity_key = id,           sticky worker keeps the
//                deadline = token_deadline})          session on one executor
//         └─> token_lm_decode(logits ‖ next state)   argmax + state splice
//       per-token callback / collected result
//   close_session(id) / idle-TTL expiry ──> state freed,
//       InferenceServer::forget_affinity(id)
//
// State lives host-side (a float vector per session, state_dim entries) and
// is carried around the compiled network, which stays stateless and
// batchable — concurrent sessions' decode steps can share a server batch.
// The affinity key makes the server prefer the worker that ran the
// session's previous step, so the model's warm arena executor and the
// session's cache lines stay put across the chain (PR-5 warm-executor
// affinity, extended to per-key stickiness).
//
// Determinism: every step is deterministic integer kernel code and the
// decode (argmax + int16 state dequantization) is a pure function of the
// step output, so greedy generation is bit-identical across runs, worker
// counts and scalar-vs-SIMD lanes, and equal to a replay of the full token
// history from the zero state — tests/test_sessions.cpp pins this against a
// golden token fixture.
//
// Per-token deadlines are execution-aware: a step fails with
// kDeadlineExpired when it is still queued past
// SessionManagerOptions::token_deadline, when its remaining slack drops
// below the server's per-layer execution estimate (refused at dispatch), or
// when in-flight work is shed at a layer boundary. Every such miss is
// retried once without a deadline, so a deadline miss costs latency (and a
// stats increment), never a token — the emitted sequence is
// deadline-independent by construction, under all three failure shapes.
//
// docs/sessions.md is the prose companion (lifecycle, guarantees, tuning).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "runtime/latency_recorder.h"
#include "runtime/server/inference_server.h"

namespace bswp::runtime {

using SessionId = std::uint64_t;

struct SessionManagerOptions {
  /// Per-token deadline forwarded as SubmitOptions::deadline (0 = none),
  /// which the server enforces against its execution estimate. An
  /// expired or shed step is retried without a deadline: misses are
  /// counted, tokens are never dropped.
  std::chrono::microseconds token_deadline{0};
  /// Idle sessions older than this are closed by expire_idle() (0 = never).
  std::chrono::milliseconds session_ttl{0};
  /// open_session() throws once this many sessions are open.
  std::size_t max_sessions = 1024;
  /// Time source for TTL expiry and decode timing (null = the process
  /// steady clock). Borrowed; must outlive the manager. Tests inject a
  /// ManualClock here (usually the same one as ServerOptions::clock) so
  /// idle-TTL assertions never sleep.
  const Clock* clock = nullptr;
};

/// One emitted token, delivered to the generate() callback as it decodes.
struct TokenEvent {
  int index = 0;         // 0-based position in this generation
  int token = 0;         // emitted token id
  double latency_us = 0; // end-to-end decode-step latency
};
using TokenCallback = std::function<void(const TokenEvent&)>;

struct GenerationResult {
  std::vector<int> tokens;
  /// Generated tokens / decode-loop wall time (prefill excluded).
  double tokens_per_s = 0.0;
  /// Per-token end-to-end latency of this generation, microseconds.
  LatencySummary token_latency;
  std::uint64_t deadline_misses = 0;
  /// false when the loop was stopped early by close_session(), shutdown()
  /// (either layer's), or a non-retryable admission failure; `tokens` holds
  /// what was emitted before the stop.
  bool completed = true;
};

/// Per-session slice of the serving stats (lifetime totals for one id).
struct SessionStats {
  SessionId id = 0;
  std::string model;
  std::uint64_t tokens = 0;
  std::uint64_t deadline_misses = 0;
  double tokens_per_s = 0.0;        // lifetime decode throughput
  LatencySummary token_latency;     // microseconds, most recent 16384 tokens
};

/// Serves registered token LMs as stateful sessions over a borrowed
/// InferenceServer (which must outlive the manager). Thread-safe: sessions
/// may be opened, generated on (one generation per session at a time),
/// closed and expired from any threads concurrently.
class SessionManager {
 public:
  explicit SessionManager(InferenceServer& server,
                          const SessionManagerOptions& options = SessionManagerOptions{});
  /// shutdown(): stops in-flight generations at the next token boundary.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Declare `model_id` (already registered on the server) to be a token LM
  /// with this geometry. Throws if the server does not know the model or the
  /// manager already has an LM under this id.
  void register_lm(const std::string& model_id, const models::TokenLmOptions& lm);

  /// Open a session on a registered LM: allocates the zero recurrent state
  /// and returns the id that keys generate/close and the server-side
  /// worker affinity. Throws past max_sessions or after shutdown().
  SessionId open_session(const std::string& model_id);

  /// Close a session and free its state. A generation in flight stops at
  /// its next token boundary and finalizes the close. Unknown ids throw.
  void close_session(SessionId id);
  bool has_session(SessionId id) const;

  /// Greedy-decode up to `max_tokens` tokens after feeding `prompt`,
  /// invoking `on_token` (if set) as each token is emitted. Blocks until
  /// done or stopped; one generation per session at a time (concurrent
  /// generate() on the same id throws std::logic_error). An empty prompt
  /// continues from the session's previous generation (throws on a fresh
  /// session, which has no context yet).
  GenerationResult generate(SessionId id, const std::vector<int>& prompt, int max_tokens,
                            const TokenCallback& on_token = TokenCallback{});
  /// generate() on a background thread; the future carries the result (or
  /// the exception generate() would have thrown).
  std::future<GenerationResult> generate_async(SessionId id, std::vector<int> prompt,
                                               int max_tokens,
                                               TokenCallback on_token = TokenCallback{});

  /// Close every idle session older than session_ttl (no-op when ttl = 0).
  /// Returns how many sessions were expired.
  int expire_idle();

  /// Stop new opens/generations and wait for in-flight decode loops to stop
  /// at their next token boundary. Does NOT shut the server down (the
  /// facade layers ordering: manager first, then server). Idempotent.
  void shutdown();

  /// Manager-wide serving snapshot (the SessionServingStats that
  /// bswp::SessionServer merges into ServerStats::sessions).
  SessionServingStats stats() const;
  SessionStats session_stats(SessionId id) const;
  std::size_t active_sessions() const;

 private:
  struct SessionRec {
    SessionId id = 0;
    std::string model;
    models::TokenLmOptions lm;
    std::vector<float> state;     // recurrent state (empty = zero)
    int last_token = -1;          // last token fed or emitted (-1 = none):
                                  // the next generation feeds it first
    bool generating = false;
    bool closed = false;          // close requested mid-generation
    std::chrono::steady_clock::time_point last_used;
    std::uint64_t tokens = 0;
    std::uint64_t deadline_misses = 0;
    double decode_seconds = 0.0;
    LatencyRecorder token_latency;

    SessionRec(std::size_t window) : token_latency(window) {}
  };

  SessionRec* find_locked(SessionId id);
  const SessionRec* find_locked(SessionId id) const;
  /// One decode step: submit (with affinity key + deadline), wait, return
  /// the raw output. Returns false to abort the generation (shutdown or a
  /// non-retryable rejection); counts deadline misses into `misses`.
  bool step(const std::string& model, SessionId id, const Tensor& input, QTensor* out,
            std::uint64_t* misses);

  InferenceServer& server_;
  SessionManagerOptions options_;
  const Clock* clock_ = nullptr;  // resolved from options_.clock at ctor

  mutable std::mutex mu_;
  std::condition_variable gen_cv_;  // shutdown waits for generations to stop
  std::map<std::string, models::TokenLmOptions> lms_;
  std::map<SessionId, std::unique_ptr<SessionRec>> sessions_;
  SessionId next_id_ = 1;
  bool shutdown_ = false;
  int active_generations_ = 0;

  // Lifetime counters + the manager-wide token latency window (all under
  // mu_ — decode steps record at token cadence, so contention is nil).
  std::uint64_t opened_ = 0;
  std::uint64_t closed_ = 0;
  std::uint64_t expired_ = 0;
  std::size_t peak_sessions_ = 0;
  std::uint64_t total_tokens_ = 0;
  std::uint64_t generations_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t deadline_misses_ = 0;
  double decode_seconds_ = 0.0;
  LatencyRecorder token_latency_;
};

}  // namespace bswp::runtime
