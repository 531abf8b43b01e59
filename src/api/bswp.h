// bswp — unified deployment API for bit-serial weight-pool networks.
//
// This header is the single public entry point for the paper's host-side
// workflow (Figure 1: train -> pool/cluster -> calibrate -> compile -> ship).
// Two facades own everything the free functions in quant::/pool::/runtime::
// used to be hand-wired for:
//
//   bswp::Deployment — fluent builder over a trained float graph:
//
//     bswp::Session s = bswp::Deployment::from(graph)
//                           .with_pool(codec_options)
//                           .finetune(train, test, ft_options)
//                           .act_bits(4)
//                           .calibrate(train)
//                           .compile();
//
//     Option combinations are validated before any heavy work runs (e.g. a
//     forced bit-serial variant without a pool, out-of-range bitwidths, or a
//     missing calibration dataset). compile() may be called repeatedly with different
//     bitwidths — calibration is re-run with the right target bitwidth each
//     time (the act_bits/calibration mismatch footgun of the old free
//     functions is gone).
//
//   bswp::Session — the inference object: run / run_batch (persistent
//     serving pool, bit-identical to sequential execution), evaluate,
//     footprint, estimate_latency, save/load, export_firmware.
//
//   bswp::Server — the async serving front end: register any number of
//     compiled sessions by name, submit individual requests
//     (submit(name, image) -> std::future<QTensor>), and let the server's
//     scheduler form cross-request batches (max-batch / deadline,
//     priority-weighted across models with per-model worker affinity) for a
//     shared pool of arena-executor workers whose live count an optional
//     autoscaler moves with load, with bounded-queue backpressure
//     (block / reject / shed-oldest) and queue/batch/affinity/latency stats.
//     See runtime/server/inference_server.h and docs/serving.md.
//
// Execution is arena-based end to end: every Session inference runs through
// a runtime::Executor whose activations and scratch live in one
// MemoryPlanner-laid-out block, and run_batch keeps a lazily created
// ServingPool of executor-per-worker threads alive across batches. Code
// that needs a long-lived single-thread inference loop can hold a
// runtime::Executor (src/runtime/executor.h) directly.
#pragma once

#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "nn/graph.h"
#include "pool/codec.h"
#include "pool/finetune.h"
#include "quant/calibrate.h"
#include "runtime/evaluate.h"
#include "runtime/frontdoor/front_door.h"
#include "runtime/pipeline.h"
#include "runtime/server/inference_server.h"
#include "runtime/serving_pool.h"
#include "runtime/sessions/session_manager.h"

namespace bswp {

/// Batched inference outputs plus the batch's latency distribution.
struct BatchResult {
  std::vector<QTensor> logits;
  runtime::BatchStats stats;
};

/// A compiled, deployable network plus everything you do with one.
/// Move-only: the session owns its persistent serving pool.
class Session {
 public:
  /// Adopt an already-compiled network (the escape hatch for code that built
  /// a CompiledNetwork through the pipeline layer by hand).
  explicit Session(runtime::CompiledNetwork net);

  // --- inference -----------------------------------------------------------
  /// Run one image (CHW or 1xCxHxW float tensor); returns quantized logits.
  /// Throws std::invalid_argument if the image shape does not match the
  /// compiled input plan. Stateless and safe from any thread; hot loops
  /// should prefer run_batch or a dedicated runtime::Executor, which reuse
  /// their arena across calls.
  QTensor run(const Tensor& image, sim::CostCounter* counter = nullptr) const;
  /// Run and dequantize logits.
  Tensor run_logits(const Tensor& image, sim::CostCounter* counter = nullptr) const;
  /// Batched inference for server-style traffic on the session's persistent
  /// worker pool (created on first use, reused across batches; one arena
  /// Executor per worker). Results are bit-identical to calling run() on
  /// each image sequentially, regardless of n_threads. The first per-image
  /// error stops the batch early and is rethrown. Cost counting is not
  /// supported in batch mode.
  std::vector<QTensor> run_batch(std::span<const Tensor> images, int n_threads = 1) const;
  std::vector<QTensor> run_batch(const std::vector<Tensor>& images, int n_threads = 1) const {
    return run_batch(std::span<const Tensor>(images.data(), images.size()), n_threads);
  }
  /// run_batch + the batch's p50/p95/p99 per-image latency and throughput.
  BatchResult run_batch_stats(std::span<const Tensor> images, int n_threads = 1) const;
  BatchResult run_batch_stats(const std::vector<Tensor>& images, int n_threads = 1) const {
    return run_batch_stats(std::span<const Tensor>(images.data(), images.size()), n_threads);
  }

  // --- measurement ---------------------------------------------------------
  /// Top-1 accuracy (%) on `ds` (first `max_samples` samples; 0 = all).
  float evaluate(const data::Dataset& ds, int max_samples = 0) const;
  /// Static flash image + peak SRAM of the deployment.
  sim::MemoryFootprint footprint() const;
  /// One-inference latency on a simulated MCU (a zero image of the input
  /// shape is used; event counts depend only on network geometry).
  runtime::LatencyReport estimate_latency(const sim::McuProfile& mcu) const;
  runtime::LatencyReport estimate_latency(const sim::McuProfile& mcu, const Tensor& image) const;

  // --- persistence ---------------------------------------------------------
  /// Binary "BSWP" container round trip.
  void save(const std::string& path) const;
  static Session load(const std::string& path);
  /// Emit the C-header flash image a firmware build links against. Returns
  /// the number of flash bytes the emitted arrays occupy.
  std::size_t export_firmware(const std::string& path, const std::string& symbol_prefix) const;

  // --- introspection -------------------------------------------------------
  const runtime::CompiledNetwork& network() const { return *net_; }
  /// CHW shape of the compiled input plan.
  std::vector<int> input_chw() const;
  int act_bits() const { return net_->act_bits; }

 private:
  runtime::ServingPool& pool() const;

  /// Heap-pinned so the serving pool's borrowed pointer survives moves.
  std::unique_ptr<runtime::CompiledNetwork> net_;
  /// Lazily created persistent worker pool (unique_ptr keeps the Session
  /// movable; the heap mutex guards first-use creation from racing threads).
  mutable std::unique_ptr<runtime::ServingPool> pool_;
  mutable std::unique_ptr<std::mutex> pool_mu_;
};

/// Async multi-model inference server over compiled sessions: individual
/// requests in, dynamically batched execution on a shared worker pool,
/// futures out. The traffic-facing counterpart of Session::run_batch (which
/// needs the caller to show up with a pre-formed batch).
///
///   bswp::Server server({.workers = 4});
///   server.add("kws", kws_session).add("vision", vision_session);
///   std::future<QTensor> f = server.submit("kws", image);
///   QTensor logits = f.get();        // bit-identical to kws_session.run(image)
///   server.drain();                  // all accepted futures are now ready
///   runtime::ServerStats s = server.stats();
///
/// Sessions are borrowed and must outlive the server (moving a Session is
/// fine — its compiled network is heap-pinned). Admission failures
/// (bounded-queue reject/shed, shutdown) surface as runtime::ServerRejected
/// through the future. Move-only.
class Server {
 public:
  /// Starts the scheduler and `options.workers` worker threads.
  explicit Server(const runtime::ServerOptions& options = runtime::ServerOptions{});
  Server(Server&&) = default;
  Server& operator=(Server&&) = default;
  ~Server() = default;  // drains accepted requests, then joins (shutdown())

  /// Register a session's compiled network under `name`, with the server
  /// defaults or an explicit per-model batching/queue/priority-weight
  /// config. Throws std::invalid_argument on a duplicate name.
  Server& add(const std::string& name, const Session& session);
  Server& add(const std::string& name, const Session& session,
              const runtime::ModelConfig& config);

  /// Submit one request (CHW or 1xCxHxW float image) for model `name`.
  /// RequestClass::kHigh requests dispatch before queued kNormal requests
  /// of the same model and are shed last under kShedOldest.
  std::future<QTensor> submit(const std::string& name, Tensor image,
                              runtime::RequestClass cls = runtime::RequestClass::kNormal);

  /// Flush and wait until every accepted request's future is ready.
  void drain();
  /// Stop admission, drain, join. Idempotent (also run by the destructor).
  void shutdown();

  runtime::ServerStats stats() const;
  runtime::ModelStats model_stats(const std::string& name) const;
  /// Zero counters, histograms, latency windows and autoscaler event
  /// counters (after warm-up, before a measured run).
  void reset_stats();
  /// Live (dispatch-eligible) workers; varies when the autoscaler is on.
  int worker_count() const;

 private:
  std::unique_ptr<runtime::InferenceServer> impl_;
};

/// Stateful autoregressive serving: token LMs from the zoo
/// (models::build_token_lm) served as multi-step generation sessions through
/// an owned inference server. The session layer keeps each session's
/// recurrent state warm host-side, dispatches the greedy decode loop
/// step-by-step through the server (session-affinity worker placement +
/// per-token deadlines), and streams tokens through a callback:
///
///   bswp::SessionServer srv({.workers = 2});
///   srv.add("lm", lm_session, lm_options);       // compiled token LM + geometry
///   runtime::SessionId id = srv.open("lm");
///   runtime::GenerationResult r =
///       srv.generate(id, {3, 1, 4}, 32,          // prompt, max_tokens
///                    [](const runtime::TokenEvent& e) { /* stream */ });
///   srv.close(id);
///   runtime::ServerStats s = srv.stats();        // .sessions filled
///
/// Greedy decode is bit-identical across runs, worker counts and
/// scalar-vs-SIMD lanes (deterministic integer kernels + pure argmax/state
/// splice). See runtime/sessions/session_manager.h and docs/sessions.md.
/// Move-only.
class SessionServer {
 public:
  explicit SessionServer(
      const runtime::ServerOptions& server = runtime::ServerOptions{},
      const runtime::SessionManagerOptions& sessions = runtime::SessionManagerOptions{});
  SessionServer(SessionServer&&) = default;
  SessionServer& operator=(SessionServer&&) = default;
  ~SessionServer();  // shutdown(): sessions first, then the server

  /// Register a compiled token LM under `name` with its geometry (the
  /// session layer needs vocab/embed/state dims to build step inputs and
  /// split step outputs). The session is borrowed and must outlive the
  /// server. An optional ModelConfig tunes batching — the default uses
  /// max_delay = 0 so a lone decode step never waits out a batching window
  /// (concurrent sessions' steps still coalesce when simultaneous).
  SessionServer& add(const std::string& name, const Session& session,
                     const models::TokenLmOptions& lm);
  SessionServer& add(const std::string& name, const Session& session,
                     const models::TokenLmOptions& lm, const runtime::ModelConfig& config);

  /// Open / close a generation session on a registered LM.
  runtime::SessionId open(const std::string& name);
  void close(runtime::SessionId id);

  /// Blocking greedy decode (see runtime::SessionManager::generate).
  runtime::GenerationResult generate(
      runtime::SessionId id, const std::vector<int>& prompt, int max_tokens,
      const runtime::TokenCallback& on_token = runtime::TokenCallback{});
  /// Decode on a background thread; the future carries the result.
  std::future<runtime::GenerationResult> generate_async(
      runtime::SessionId id, std::vector<int> prompt, int max_tokens,
      runtime::TokenCallback on_token = runtime::TokenCallback{});

  /// Close sessions idle past SessionManagerOptions::session_ttl.
  int expire_idle();
  /// Stop generations at their next token boundary, then shut the server
  /// down. Idempotent (also run by the destructor).
  void shutdown();

  /// Server snapshot with the session-serving rollup merged in
  /// (ServerStats::sessions — tokens/s, per-token p50/p99, active/peak
  /// sessions, affinity hit rate).
  runtime::ServerStats stats() const;
  runtime::SessionStats session_stats(runtime::SessionId id) const;
  std::size_t active_sessions() const;
  int worker_count() const;

 private:
  runtime::ServerOptions server_options_;  // source of the default LM config
  std::unique_ptr<runtime::InferenceServer> server_;
  std::unique_ptr<runtime::SessionManager> sessions_;
};

/// Sharded serving cluster behind one front door: N identically configured
/// Server-style shards, consistent-hash request routing, an optional
/// idempotent result cache, and per-shard health breakers with failover.
/// The horizontal layer above bswp::Server — same submit/future contract,
/// same bit-identity guarantee, cluster-wide stats.
///
///   bswp::Cluster cluster({.shards = 2, .cache_capacity = 1024});
///   cluster.add("kws", kws_session);
///   std::future<QTensor> f = cluster.submit("kws", image);
///   QTensor logits = f.get();   // bit-identical to kws_session.run(image)
///   cluster.drain();
///   runtime::ClusterStats s = cluster.stats();
///
/// Sessions are borrowed and must outlive the cluster; every model is
/// registered on every shard (the ring decides which shard serves which
/// request). See runtime/frontdoor/front_door.h and docs/frontdoor.md.
/// Move-only.
class Cluster {
 public:
  /// Starts every shard (each a full inference server per
  /// options.server) and the routing threads.
  explicit Cluster(const runtime::FrontDoorOptions& options = runtime::FrontDoorOptions{});
  Cluster(Cluster&&) = default;
  Cluster& operator=(Cluster&&) = default;
  ~Cluster() = default;  // resolves accepted futures, then joins (shutdown())

  /// Register a session's compiled network under `name` on every shard.
  /// Throws std::invalid_argument on a duplicate name.
  Cluster& add(const std::string& name, const Session& session);
  Cluster& add(const std::string& name, const Session& session,
               const runtime::ModelConfig& config);

  /// Submit one request. Bit-identical repeat inputs may be answered from
  /// the result cache without touching a shard; otherwise the consistent-
  /// hash ring places the request on a live shard. Admission failures
  /// surface as runtime::ServerRejected through the future.
  std::future<QTensor> submit(const std::string& name, Tensor image,
                              runtime::RequestClass cls = runtime::RequestClass::kNormal);

  /// Flush every shard and wait until every accepted future is ready
  /// (failover retries included).
  void drain();
  /// Stop admission, drain, shut every shard down. Idempotent.
  void shutdown();

  /// Shut one shard down (rolling maintenance / fault injection): it is
  /// routed around immediately and its accepted requests still complete.
  void stop_shard(int shard);

  /// Fleet snapshot: routing, health, cache and merged-window latency.
  runtime::ClusterStats stats() const;
  /// Zero counters and latency windows cluster-wide (cache entries and
  /// shard health are preserved).
  void reset_stats();

  int shard_count() const;
  /// Shards currently routable (healthy or probing).
  int healthy_shard_count() const;
  /// Ring owner of (name, image) when every shard is live (placement
  /// introspection for tests and ops tooling).
  int shard_for(const std::string& name, const Tensor& image) const;

 private:
  std::unique_ptr<runtime::FrontDoor> impl_;
};

/// Fluent builder owning the pool -> finetune -> calibrate -> compile
/// pipeline. Copies the graph it is built from; the calibration (and
/// finetuning) datasets are borrowed and must outlive compile().
class Deployment {
 public:
  /// Start a deployment from a trained float graph (copied).
  static Deployment from(const nn::Graph& graph);

  // --- weight pool ---------------------------------------------------------
  /// Cluster a shared weight pool with these options (runs lazily, before
  /// finetune() or compile()). Replaces any previously supplied pool.
  Deployment& with_pool(const pool::CodecOptions& options);
  /// Use a pre-built (typically already fine-tuned) pool as-is.
  Deployment& with_pool(pool::PooledNetwork pooled);
  /// Fine-tune the graph with the pool held fixed (paper Figure 2). Runs
  /// eagerly; requires a pool. Returns the builder for chaining; the
  /// resulting accuracy is available via finetuned_acc().
  Deployment& finetune(const data::Dataset& train, const data::Dataset& test,
                       const pool::FinetuneOptions& options);

  // --- precision / compilation options -------------------------------------
  /// Activation bitwidth M in 1..8 (calibration is synced automatically).
  Deployment& act_bits(int bits);
  /// Weight bitwidth B_w in 2..8 for uncompressed layers and the pool quant.
  Deployment& weight_bits(int bits);
  /// LUT entry bitwidth B_l in 2..16. May exceed weight_bits: LUT entries
  /// hold group dot products, so B_l=16 is the exact-LUT configuration.
  Deployment& lut_bits(int bits);
  Deployment& lut_order(pool::LutOrder order);
  /// MCU profile pricing the cost model that picks each pooled layer's
  /// bit-serial variant (defaults to MC-large). Pass the profile you will
  /// deploy on so variant choice optimizes that target.
  Deployment& cost_profile(const sim::McuProfile& profile);
  /// Host-lane policy (scalar vs SIMD kernel family per layer). The default
  /// kCostModel prices both lanes under host_profile(); both lanes are
  /// bit-identical, so this only changes host wall-clock time.
  Deployment& host_lanes(runtime::HostLaneSelect mode);
  /// Profile pricing the scalar-vs-SIMD lane decision (defaults to
  /// sim::host_profile()).
  Deployment& host_profile(const sim::McuProfile& profile);
  /// Record per-pass lowering trace entries in compile_report().
  Deployment& pass_trace(bool enabled);
  /// Force one bit-serial variant for every pooled layer (ablations).
  /// Requires a pool at compile() time.
  Deployment& force_variant(kernels::BitSerialVariant variant);
  /// Adopt a legacy CompileOptions wholesale (validated field by field) —
  /// the migration bridge for code that sweeps CompileOptions structs.
  Deployment& with_options(const runtime::CompileOptions& options);

  // --- calibration ---------------------------------------------------------
  /// Record the activation-range calibration dataset. `options.act_bits` is
  /// overridden by the deployment's act_bits at compile() time.
  Deployment& calibrate(const data::Dataset& ds,
                        const quant::CalibrateOptions& options = quant::CalibrateOptions{});
  /// Seed BatchNorm running statistics with one training-mode forward pass
  /// over `batch` calibration samples before calibrating (needed when the
  /// graph was built but never trained, e.g. capacity planning). Runs once:
  /// repeated compile() calls reuse the seeded statistics so rebuilds stay
  /// deterministic.
  Deployment& seed_batchnorm(int batch = 16);

  // --- build ---------------------------------------------------------------
  /// Validate the configuration, run the pipeline and return a Session.
  /// Throws std::invalid_argument on bad option combinations before any
  /// heavy work starts. May be called repeatedly (e.g. per bitwidth).
  Session compile();

  // --- introspection -------------------------------------------------------
  /// The graph as the deployment sees it (pool-projected after finetune() or
  /// compile() when a pool is configured).
  const nn::Graph& graph() const { return graph_; }
  /// The clustered pool, or null if none is configured/built yet.
  const pool::PooledNetwork* pooled() const { return has_pool_ ? &pooled_ : nullptr; }
  /// Final test accuracy of the last finetune() run.
  float finetuned_acc() const { return finetuned_acc_; }
  /// Lowering introspection from the last compile(): the per-layer backend
  /// selection report, plus the pass trace when pass_trace(true) is set.
  const runtime::CompileReport& compile_report() const { return report_; }

 private:
  explicit Deployment(nn::Graph graph) : graph_(std::move(graph)) {}
  void ensure_pool();
  void validate() const;

  nn::Graph graph_;

  enum class PoolSource { kNone, kOptions, kProvided };
  PoolSource pool_source_ = PoolSource::kNone;
  pool::CodecOptions pool_options_;
  pool::PooledNetwork pooled_;
  bool has_pool_ = false;
  float finetuned_acc_ = 0.0f;

  runtime::CompileOptions opts_;
  runtime::CompileReport report_;
  const data::Dataset* cal_ds_ = nullptr;
  quant::CalibrateOptions cal_options_;
  int seed_bn_batch_ = 0;
  bool bn_seeded_ = false;
};

}  // namespace bswp
