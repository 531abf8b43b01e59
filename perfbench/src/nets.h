// The networks the workloads serve, each built from fixed seeds so that its
// compiled form — and every exact count derived from it — is independent of
// the workload seed. Only the inputs (images, prompts, arrival schedules)
// come from --seed.
//
// Every served network has a reference twin compiled from the same graph,
// pool and calibration with HostLaneSelect::kScalar: the scalar kernels are
// the bit-identity reference of every other lane and batch path, so each
// timed output must equal the reference's output byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/bswp.h"
#include "models/zoo.h"

namespace perfbench {

/// Pooled ResNet-s (width 0.5, 16x16 CIFAR stand-in, S = 64, G = 8), as
/// compiled at act_bits 4 and 8, saved, and loaded back. Times are one
/// pass through each public setup layer (sums over the a4 and a8 builds).
struct PooledBuild {
  std::unique_ptr<bswp::Session> a4, a8;  // loaded copies: what is served
  std::unique_ptr<bswp::Session> ref_a4, ref_a8;
  double pool_build_s = 0.0;   // pool::build_weight_pool
  double calibrate_s = 0.0;    // quant::calibrate, both bitwidths
  double compile_s = 0.0;      // runtime::compile, both bitwidths
  double save_s = 0.0;         // Session::save, both containers
  double load_s = 0.0;         // Session::load, both containers
  double container_bytes = 0;  // act_bits-4 container file size
  double reference_s = 0.0;    // compiling the references (not set-up)
};

/// Build the pooled pair. Containers are written under `work_dir`.
/// References are compiled after the timed steps (they are the benchmark's
/// own cost, not the workload's) and only when `references` is set.
PooledBuild build_pooled(const std::string& work_dir, bool references);

/// Counts of the served act_bits-4 build that are exact by design (counter invariance) and so
/// must repeat between runs of the same code: its per-inference event
/// tallies (kernels.pooled_a4.*_events), its MC-large latency estimate
/// (sim.mcu_large_est_us), its footprint (flash_bytes, sram_bytes) and its
/// container size (serialize.container_bytes). Names are metric names.
std::vector<std::pair<std::string, double>> pooled_exact_counts(const PooledBuild& b,
                                                                const bswp::Tensor& image);

/// A served network and its scalar reference.
struct ServedNet {
  std::unique_ptr<bswp::Session> served;
  std::unique_ptr<bswp::Session> ref;
  double reference_s = 0.0;  // compiling the reference (not set-up)
};

/// Uncompressed int8 ResNet-s (width 0.5, 16x16) forced onto the SIMD lane.
ServedNet build_int8_resnet();
/// Uncompressed int8 TinyConv on the same 3x16x16 inputs (cost-model lanes).
ServedNet build_tinyconv();

/// A token LM compiled with runtime::compile (cost-model lanes) plus its
/// scalar reference, calibrated on its own greedy rollouts.
struct TokenLm {
  bswp::models::TokenLmOptions opt;
  ServedNet net;
};
TokenLm build_token_lm(const bswp::models::TokenLmOptions& opt, std::uint64_t weight_seed);

/// `n` 3x16x16 images drawn from a CIFAR stand-in seeded by `seed`.
std::vector<bswp::Tensor> make_images(std::uint64_t seed, int n);

/// Reference logits of `xs`, one plain Executor::run per image, spread over
/// `threads` threads.
std::vector<bswp::QTensor> reference_outputs(const bswp::Session& ref,
                                             const std::vector<bswp::Tensor>& xs, int threads);

/// Byte equality of logits: data and quantization metadata.
bool same_output(const bswp::kernels::QView& got, const bswp::QTensor& want);
bool same_output(const bswp::QTensor& got, const bswp::QTensor& want);

/// Greedy decode on one Executor, the reference every served token stream
/// is compared with: feed `prompt` from the zero state, then emit
/// `max_tokens` argmax tokens.
std::vector<int> replay_tokens(const bswp::Session& lm_session,
                               const bswp::models::TokenLmOptions& opt,
                               const std::vector<int>& prompt, int max_tokens);

}  // namespace perfbench
