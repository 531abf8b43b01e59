#include "runtime/sessions/session_manager.h"

#include <algorithm>
#include <utility>

namespace bswp::runtime {

// `Clock` here is runtime::Clock (runtime/clock.h); all reads of "now" go
// through the injected clock_ so TTL and decode timing run on a ManualClock
// in tests.

namespace {

/// Per-token latency samples retained manager-wide and per session.
constexpr std::size_t kTokenLatencyWindow = 1 << 14;

double micros_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

SessionManager::SessionManager(InferenceServer& server, const SessionManagerOptions& options)
    : server_(server),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : &steady_clock_ref()),
      token_latency_(kTokenLatencyWindow) {
  check(options_.max_sessions >= 1, "SessionManager: max_sessions must be >= 1");
  check(options_.token_deadline.count() >= 0, "SessionManager: token_deadline must be >= 0");
  check(options_.session_ttl.count() >= 0, "SessionManager: session_ttl must be >= 0");
}

SessionManager::~SessionManager() { shutdown(); }

void SessionManager::register_lm(const std::string& model_id,
                                 const models::TokenLmOptions& lm) {
  const std::vector<std::string> ids = server_.model_ids();
  check(std::find(ids.begin(), ids.end(), model_id) != ids.end(),
        "SessionManager::register_lm: model '" + model_id +
            "' is not registered on the server");
  std::lock_guard<std::mutex> lock(mu_);
  check(!shutdown_, "SessionManager::register_lm: manager is shut down");
  check(lms_.find(model_id) == lms_.end(),
        "SessionManager::register_lm: duplicate LM '" + model_id + "'");
  lms_.emplace(model_id, lm);
}

SessionId SessionManager::open_session(const std::string& model_id) {
  expire_idle();
  std::lock_guard<std::mutex> lock(mu_);
  check(!shutdown_, "SessionManager::open_session: manager is shut down");
  const auto lm = lms_.find(model_id);
  check(lm != lms_.end(),
        "SessionManager::open_session: unknown LM '" + model_id + "'");
  check(sessions_.size() < options_.max_sessions,
        "SessionManager::open_session: max_sessions reached");
  const SessionId id = next_id_++;
  auto rec = std::make_unique<SessionRec>(kTokenLatencyWindow);
  rec->id = id;
  rec->model = model_id;
  rec->lm = lm->second;
  rec->last_used = clock_->now();
  sessions_.emplace(id, std::move(rec));
  ++opened_;
  peak_sessions_ = std::max(peak_sessions_, sessions_.size());
  return id;
}

SessionManager::SessionRec* SessionManager::find_locked(SessionId id) {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

const SessionManager::SessionRec* SessionManager::find_locked(SessionId id) const {
  const auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second.get();
}

void SessionManager::close_session(SessionId id) {
  std::string model;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SessionRec* rec = find_locked(id);
    check(rec != nullptr, "SessionManager::close_session: unknown session");
    if (rec->generating) {
      // The decode loop observes `closed` at its next token boundary, stops,
      // and finalizes the erase — the session stays visible (and counted
      // active) until its in-flight step has fully unwound.
      rec->closed = true;
      return;
    }
    model = rec->model;
    sessions_.erase(id);
    ++closed_;
  }
  server_.forget_affinity(model, id);
}

bool SessionManager::has_session(SessionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return find_locked(id) != nullptr;
}

int SessionManager::expire_idle() {
  if (options_.session_ttl.count() == 0) return 0;
  const Clock::time_point cutoff = clock_->now() - options_.session_ttl;
  std::vector<std::pair<std::string, SessionId>> victims;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      SessionRec& rec = *it->second;
      if (!rec.generating && !rec.closed && rec.last_used < cutoff) {
        victims.emplace_back(rec.model, rec.id);
        it = sessions_.erase(it);
        ++expired_;
      } else {
        ++it;
      }
    }
  }
  for (const auto& [model, id] : victims) server_.forget_affinity(model, id);
  return static_cast<int>(victims.size());
}

bool SessionManager::step(const std::string& model, SessionId id, const Tensor& input,
                          QTensor* out, std::uint64_t* misses) {
  SubmitOptions so;
  so.cls = RequestClass::kHigh;  // a token step must not queue behind bulk traffic
  so.affinity_key = id;
  so.deadline = options_.token_deadline;
  for (;;) {
    try {
      // The server takes the image by value; keep `input` for the
      // deadline-miss retry.
      *out = server_.submit(model, Tensor(input), so).get();
      return true;
    } catch (const ServerRejected& e) {
      if (e.reason() == ServerRejected::Reason::kDeadlineExpired && so.deadline.count() > 0) {
        // Miss policy: the deadline bounds queueing of the *first* attempt;
        // the retry runs deadline-free so a congested queue costs latency,
        // never a token — the emitted sequence stays deadline-independent.
        ++*misses;
        so.deadline = std::chrono::microseconds{0};
        continue;
      }
      return false;  // shutdown / overflow: stop the generation cleanly
    }
  }
}

GenerationResult SessionManager::generate(SessionId id, const std::vector<int>& prompt,
                                          int max_tokens, const TokenCallback& on_token) {
  check(max_tokens >= 0, "SessionManager::generate: max_tokens must be >= 0");

  std::string model;
  models::TokenLmOptions lm;
  std::vector<float> state;
  int last_token = -1;
  SessionRec* rec = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    check(!shutdown_, "SessionManager::generate: manager is shut down");
    rec = find_locked(id);
    check(rec != nullptr && !rec->closed, "SessionManager::generate: unknown session");
    check(!rec->generating,
          "SessionManager::generate: a generation is already in progress on this session");
    model = rec->model;
    lm = rec->lm;
    // Validate before marking the generation active: a throw past this
    // point would leak `generating` and deadlock shutdown().
    for (int t : prompt) {
      check(t >= 0 && t < lm.vocab, "SessionManager::generate: prompt token out of range");
    }
    state = rec->state;  // continuation point
    last_token = rec->last_token;
    rec->generating = true;
    ++active_generations_;
  }

  // `last_token` is the last context token, fed to produce the next
  // emission. A fresh session with an empty prompt has nothing to feed.
  GenerationResult res;
  std::vector<double> lat_us;
  std::uint64_t misses = 0;
  bool aborted = false;
  double decode_seconds = 0.0;

  const auto stop_requested = [&] {
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_ || rec->closed;
  };

  try {
    check(!prompt.empty() || last_token >= 0,
          "SessionManager::generate: empty prompt on a fresh session");
    QTensor out;
    // Prefill: feed every context token but the last; the last is fed by
    // the first emission step so its logits are not thrown away. After any
    // earlier generation the state reflects the history minus its last
    // token, so that token leads the feed ahead of the new prompt (a replay
    // of the full history from the zero state feeds the same sequence).
    std::vector<int> feed;
    if (last_token >= 0) feed.push_back(last_token);
    feed.insert(feed.end(), prompt.begin(), prompt.end());
    last_token = feed.back();
    for (std::size_t i = 0; i + 1 < feed.size(); ++i) {
      if (stop_requested() ||
          !step(model, id, models::token_lm_input(lm, feed[i], &state), &out, &misses)) {
        aborted = true;
        break;
      }
      models::token_lm_decode(lm, out, &state);
    }
    const Clock::time_point decode_t0 = clock_->now();
    for (int n = 0; n < max_tokens && !aborted; ++n) {
      const Clock::time_point t0 = clock_->now();
      if (stop_requested() ||
          !step(model, id, models::token_lm_input(lm, last_token, &state), &out, &misses)) {
        aborted = true;
        break;
      }
      const int token = models::token_lm_decode(lm, out, &state);
      const double us = micros_between(t0, clock_->now());
      lat_us.push_back(us);
      res.tokens.push_back(token);
      last_token = token;
      if (on_token) on_token(TokenEvent{n, token, us});
    }
    decode_seconds = micros_between(decode_t0, clock_->now()) / 1e6;
  } catch (...) {
    // Validation failures (bad prompt token, fresh-session empty prompt) and
    // a throwing on_token callback must release the generation slot before
    // propagating — and still finalize a close_session() requested while the
    // generation ran, or the record (rejected by generate(), skipped by
    // expire_idle()) and its server-side sticky entry would leak until a
    // second close_session() call.
    bool erase = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      rec->generating = false;
      if (rec->closed) {
        sessions_.erase(id);
        ++closed_;
        erase = true;
      }
      --active_generations_;
      gen_cv_.notify_all();
    }
    if (erase) server_.forget_affinity(model, id);
    throw;
  }

  res.completed = !aborted;
  res.deadline_misses = misses;
  res.token_latency = LatencyRecorder::summarize(lat_us);
  res.tokens_per_s =
      decode_seconds > 0.0 ? static_cast<double>(res.tokens.size()) / decode_seconds : 0.0;

  bool erase = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    rec->generating = false;
    rec->last_used = clock_->now();
    rec->state = std::move(state);
    rec->last_token = last_token;
    rec->tokens += res.tokens.size();
    rec->deadline_misses += misses;
    rec->decode_seconds += decode_seconds;
    for (double us : lat_us) {
      rec->token_latency.record(us);
      token_latency_.record(us);
    }
    total_tokens_ += res.tokens.size();
    deadline_misses_ += misses;
    decode_seconds_ += decode_seconds;
    if (aborted) {
      ++cancelled_;
    } else {
      ++generations_;
    }
    if (rec->closed) {
      sessions_.erase(id);
      ++closed_;
      erase = true;
    }
    --active_generations_;
    gen_cv_.notify_all();
  }
  if (erase) server_.forget_affinity(model, id);
  return res;
}

std::future<GenerationResult> SessionManager::generate_async(SessionId id,
                                                             std::vector<int> prompt,
                                                             int max_tokens,
                                                             TokenCallback on_token) {
  return std::async(std::launch::async,
                    [this, id, prompt = std::move(prompt), max_tokens,
                     on_token = std::move(on_token)] {
                      return generate(id, prompt, max_tokens, on_token);
                    });
}

void SessionManager::shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  // In-flight decode loops observe shutdown_ at their next token boundary
  // (their current step completes through the still-running server, or is
  // rejected if the server shut down first — either way they stop).
  gen_cv_.wait(lock, [&] { return active_generations_ == 0; });
}

SessionServingStats SessionManager::stats() const {
  SessionServingStats s;
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.opened = opened_;
    s.closed = closed_;
    s.expired = expired_;
    s.active_sessions = sessions_.size();
    s.peak_sessions = peak_sessions_;
    s.tokens = total_tokens_;
    s.generations = generations_;
    s.cancelled = cancelled_;
    s.deadline_misses = deadline_misses_;
    s.tokens_per_s = decode_seconds_ > 0.0
                         ? static_cast<double>(total_tokens_) / decode_seconds_
                         : 0.0;
    samples = token_latency_.samples();
  }
  s.token_latency = LatencyRecorder::summarize(std::move(samples));
  // Affinity hit rate of the decode traffic, from the server's keyed-batch
  // counters (cheap per-model snapshots; mu_ is not held).
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<std::string> lm_ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lm_ids.reserve(lms_.size());
    for (const auto& [mid, lm] : lms_) lm_ids.push_back(mid);
  }
  for (const std::string& mid : lm_ids) {
    const ModelStats ms = server_.model_stats(mid);
    hits += ms.session_affinity_hits;
    misses += ms.session_affinity_misses;
  }
  s.affinity_hit_rate =
      hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  return s;
}

SessionStats SessionManager::session_stats(SessionId id) const {
  SessionStats s;
  std::vector<double> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const SessionRec* rec = find_locked(id);
    check(rec != nullptr, "SessionManager::session_stats: unknown session");
    s.id = rec->id;
    s.model = rec->model;
    s.tokens = rec->tokens;
    s.deadline_misses = rec->deadline_misses;
    s.tokens_per_s = rec->decode_seconds > 0.0
                         ? static_cast<double>(rec->tokens) / rec->decode_seconds
                         : 0.0;
    samples = rec->token_latency.samples();
  }
  s.token_latency = LatencyRecorder::summarize(std::move(samples));
  return s;
}

std::size_t SessionManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace bswp::runtime
