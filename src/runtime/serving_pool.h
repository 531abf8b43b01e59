// Persistent serving pool: the offline batch path behind
// Session::run_batch. The calling thread and long-lived worker threads, one
// arena Executor each, steal chunks of kExecBatch images and run each chunk
// as ONE Executor::run_batch_view call.
//
// Participant 0 is always the caller, on the pool's persistent caller
// executor; a batch served by n workers wakes n - 1 pool threads to join
// it. Threads are created lazily on the first batch that needs them and
// reused across batches, so every arena is warm after its first chunk and
// steady-state serving performs no per-inference heap allocation inside the
// engine. Results are bit-identical to sequential execution for any worker
// count (the kernels are deterministic integer code and each image is
// independent).
//
// Error semantics: the first exception is recorded, every participant's
// steal loop observes the failure flag and stops taking new images (the
// remaining queue is drained unexecuted), and the error is rethrown to the
// caller after the batch quiesces. A failed batch leaves the caller's
// `stats` untouched — partial latency numbers from an aborted batch are
// noise.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "runtime/executor.h"
#include "runtime/latency_recorder.h"

namespace bswp::runtime {

/// Latency distribution of one served batch.
struct BatchStats {
  std::size_t images = 0;
  int workers = 0;               // participants, the caller included
  double wall_seconds = 0.0;     // batch wall time, submit to last result
  double throughput_ips = 0.0;   // images / wall_seconds
  /// Per-image engine latency (microseconds, nearest-rank percentiles).
  LatencySummary latency;
};

class ServingPool {
 public:
  /// Images per steal: each chunk is one batched executor call, so the
  /// batch-strided kernel cores amortize their stationary operands.
  static constexpr int kExecBatch = 8;

  /// The pool serves exactly one compiled network; `net` is borrowed and
  /// must outlive the pool. No threads are created until a batch needs them.
  explicit ServingPool(const CompiledNetwork& net);
  ~ServingPool();

  ServingPool(const ServingPool&) = delete;
  ServingPool& operator=(const ServingPool&) = delete;

  /// Serve one batch on up to `n_workers` participants: the calling thread
  /// plus n_workers - 1 persistent pool threads (grown on demand, reused
  /// afterwards). Batches are serialized: concurrent run() calls queue on
  /// an internal mutex. Throws the first per-image error after the batch
  /// quiesces; `stats` (optional) receives the latency distribution of a
  /// successful batch and is left untouched on failure.
  std::vector<QTensor> run(std::span<const Tensor> images, int n_workers,
                           BatchStats* stats = nullptr);

 private:
  struct Batch;
  void ensure_workers(int n);
  void worker_main(int id);
  /// The steal loop one participant runs over `b`, building `exec` on first
  /// use. Records the first error in `b` instead of throwing.
  void steal_chunks(Batch& b, std::unique_ptr<Executor>& exec) const;

  const CompiledNetwork* net_;

  std::mutex run_mu_;  // serializes batches

  std::mutex mu_;  // guards batch_, generation_, stop_, threads_
  std::condition_variable cv_;       // workers wait for a batch / shutdown
  std::condition_variable done_cv_;  // run() waits for batch quiescence
  std::vector<std::thread> threads_;
  Batch* batch_ = nullptr;
  std::uint64_t generation_ = 0;
  bool stop_ = false;

  std::unique_ptr<Executor> caller_exec_;  // participant 0's executor (lazy)
};

}  // namespace bswp::runtime
