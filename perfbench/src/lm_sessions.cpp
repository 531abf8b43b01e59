// lm-sessions: a closed loop of 4 concurrent callers, each opening a
// session on the default token LM, greedy-decoding a long sequence through
// bswp::SessionServer (2 workers, default max_delay 0) and closing it.
//
// The kernels run a few microseconds of each token's round trip; the rest is
// server admission and dispatch, the future handoff, the session state
// splice and per-call executor cost. The server sees tiny keyed requests
// here and large batched image requests in cluster-open, so a server change
// that helps one and costs the other shows up.
#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupReps = 25;  // set-up takes ~12 ms: many repeats for a steady median
constexpr int kSessions = 4;
constexpr int kTokens = 256;  // emitted per generation
constexpr int kPrompts = 16;
constexpr double kTokenLimitUs = 1000.0;  // per-token attainment limit
constexpr std::size_t kWindow = 4096;     // tokens per statistics window
// Per-caller token samples, allocated and touched before the run so the
// sample store does not grow peak_rss_mb with the token count. A caller
// stops early if it fills up (about 50 s of decoding on the host in README).
constexpr std::size_t kMaxTokensPerCaller = std::size_t{1} << 20;
const char* const kGoldenPath = "tests/golden/tokens.txt";

bswp::runtime::ServerOptions server_options() {
  bswp::runtime::ServerOptions so;
  so.workers = 2;
  return so;
}

std::unique_ptr<bswp::SessionServer> start_server(const TokenLm& lm) {
  auto srv = std::make_unique<bswp::SessionServer>(server_options());
  srv->add("lm", *lm.net.served, lm.opt);
  const bswp::runtime::SessionId id = srv->open("lm");
  srv->generate(id, {1, 2}, 16);
  srv->close(id);
  return srv;
}

/// The committed golden decode (tests/golden/tokens.txt, key
/// lm_v32_seed7_p123), served end to end on a fresh 2-worker server.
void check_golden(Ledger& ledger) {
  std::ifstream in(kGoldenPath);
  std::vector<int> want;
  for (std::string line; std::getline(in, line);) {
    std::istringstream ss(line);
    std::string key;
    ss >> key;
    if (key != "lm_v32_seed7_p123") continue;
    for (int v = 0; ss >> v;) want.push_back(v);
  }
  if (want.empty()) {
    ledger.fail_check(std::string("lm-sessions: no lm_v32_seed7_p123 in ") + kGoldenPath);
    return;
  }
  bswp::models::TokenLmOptions opt;
  opt.vocab = 32;
  opt.embed_dim = 8;
  opt.state_dim = 16;
  opt.hidden_dim = 16;
  const TokenLm lm = build_token_lm(opt, kLmWeightSeed);
  bswp::SessionServer srv(server_options());
  srv.add("lm", *lm.net.served, lm.opt);
  const bswp::runtime::SessionId id = srv.open("lm");
  const bswp::runtime::GenerationResult r = srv.generate(id, {1, 2, 3}, 32);
  if (r.tokens != want) ++ledger.mismatches;
}

}  // namespace

bswp::models::TokenLmOptions default_lm() { return bswp::models::TokenLmOptions{}; }

void lm_sessions(const Args& args, const Prebuilt* pre, Report& report, Ledger& ledger) {
  check_golden(ledger);

  TokenLm owned;
  const TokenLm* lm = nullptr;
  std::unique_ptr<bswp::SessionServer> srv;
  if (pre == nullptr) {
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      srv.reset();
      const Clock::time_point t0 = Clock::now();
      owned = build_token_lm(default_lm(), kLmWeightSeed);
      lm = &owned;
      srv = start_server(*lm);
      setup_s.push_back(seconds_since(t0) - owned.net.reference_s);
    }
    report.set("setup_s", median(setup_s), "s");
    const bswp::sim::MemoryFootprint fp = lm->net.served->footprint();
    report.set("flash_bytes", static_cast<double>(fp.flash_bytes), "bytes");
    report.set("sram_bytes", static_cast<double>(fp.sram_bytes), "bytes");
    ledger.exact.push_back({"flash_bytes", static_cast<double>(fp.flash_bytes)});
    ledger.exact.push_back({"sram_bytes", static_cast<double>(fp.sram_bytes)});
  } else {
    lm = &pre->lm;
    srv = start_server(*lm);
  }

  // Prompts from the seed, and what a direct replay on one scalar Executor
  // emits for each.
  bswp::Rng rng(args.seed * 0x2545f4914f6cdd1dULL + 3);
  std::vector<std::vector<int>> prompts(kPrompts);
  std::vector<std::vector<int>> want(kPrompts);
  for (int p = 0; p < kPrompts; ++p) {
    const int len = 1 + static_cast<int>(rng.uniform_int(4));
    for (int i = 0; i < len; ++i) {
      prompts[static_cast<std::size_t>(p)].push_back(
          static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(lm->opt.vocab))));
    }
    want[static_cast<std::size_t>(p)] =
        replay_tokens(*lm->net.ref, lm->opt, prompts[static_cast<std::size_t>(p)], kTokens);
  }

  struct Caller {
    std::vector<double> gaps_us = std::vector<double>(kMaxTokensPerCaller, 0.0);
    std::size_t n = 0;  // gaps recorded: per token, since the previous token or the call
    double generations = 0, tokens = 0, matched = 0;
    std::uint64_t mismatches = 0;  // generations whose tokens differ from the replay
    std::string error;             // what stopped this caller early, if anything
  };
  std::vector<Caller> callers(kSessions);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(args.seconds));
  // One caller: open, decode, close, until time is up.
  const auto call = [&](Caller& c, bswp::Rng& pick) {
    while (Clock::now() < end && c.n + kTokens <= kMaxTokensPerCaller) {
      const std::size_t p = pick.uniform_int(kPrompts);
      const bswp::runtime::SessionId id = srv->open("lm");
      Clock::time_point prev = Clock::now();
      const bswp::runtime::GenerationResult r =
          srv->generate(id, prompts[p], kTokens, [&](const bswp::runtime::TokenEvent&) {
            const Clock::time_point now = Clock::now();
            if (c.n < kMaxTokensPerCaller) c.gaps_us[c.n++] = us_between(prev, now);
            prev = now;
          });
      srv->close(id);
      ++c.generations;
      c.tokens += static_cast<double>(r.tokens.size());
      // A generation stopped early must still be a prefix of the replay.
      if (r.tokens.size() <= want[p].size() &&
          std::equal(r.tokens.begin(), r.tokens.end(), want[p].begin())) {
        c.matched += static_cast<double>(r.tokens.size());
      } else {
        ++c.mismatches;
      }
    }
  };
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Caller& c = callers[static_cast<std::size_t>(s)];
      bswp::Rng pick(args.seed * 31 + static_cast<std::uint64_t>(s));
      try {
        call(c, pick);
      } catch (const std::exception& ex) {
        c.error = ex.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = seconds_since(start);
  const bswp::runtime::ServerStats st = srv->stats();

  // Windows run over each caller's tokens in order. A window's throughput
  // is its tokens over the time they took (the sum of their gaps), times the
  // callers running alongside.
  std::vector<double> p50s, p99s, tps, shares;
  const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  PhaseCounts phase;
  double tokens = 0;
  for (Caller& c : callers) {
    c.gaps_us.resize(c.n);
    tokens += static_cast<double>(c.n);
    append(p50s, window_percentiles(c.gaps_us, kWindow, 0.50));
    append(p99s, window_percentiles(c.gaps_us, kWindow, 0.99));
    append(shares, window_shares_within(c.gaps_us, kWindow, kTokenLimitUs));
    append(tps, per_window(c.gaps_us, kWindow, [](const std::vector<double>& w) {
             double us = 0;
             for (double g : w) us += g;
             return us > 0 ? kSessions * 1e6 * static_cast<double>(w.size()) / us : 0.0;
           }));
    phase.sent += c.generations * kTokens;
    phase.succeeded += c.matched;
    phase.failed += c.generations * kTokens - c.tokens;
    ledger.mismatches += c.mismatches;
    if (!c.error.empty()) ledger.fail_check("lm-sessions: caller stopped: " + c.error);
  }
  ledger.attempted += static_cast<std::uint64_t>(phase.sent);
  ledger.failed += static_cast<std::uint64_t>(phase.failed);

  const double token_p50 = median(p50s);
  report.set("p50_us", token_p50, "us");
  report.set("throughput_per_s", median(tps), "1/s");
  report.set("attainment", median(shares), "share");
  phase.p99_us = median(p99s);
  log("lm-sessions: %.0f tokens/s over the whole run", tokens / wall_s);
  report_phase(report, "phase_a", phase);

  const double hits = static_cast<double>(st.affinity_hits);
  const double lookups = static_cast<double>(st.affinity_hits + st.affinity_misses);
  report.set("server.queue_wait_p50_us", st.latency.p50_us - st.exec_latency.p50_us, "us");
  report.set("server.exec_p50_us", st.exec_latency.p50_us, "us");
  report.set("server.mean_batch", st.mean_batch_size, "count");
  report.set("server.shed", static_cast<double>(st.admission.shed), "count");
  report.set("server.rejected", static_cast<double>(st.admission.rejected), "count");
  report.set("server.executor_affinity_hit_rate", lookups > 0 ? hits / lookups : 0.0, "share");
  report.set("sessions.affinity_hit_rate", st.sessions.affinity_hit_rate, "share");
  report.set("sessions.deadline_misses", static_cast<double>(st.sessions.deadline_misses),
             "count");
  report.set("sessions.overhead_p50_us", token_p50 - st.exec_latency.p50_us, "us");
  log("lm-sessions: %.0f tokens in %.2f s", tokens, wall_s);
}

}  // namespace perfbench
