#include "nets.h"

#include <cstring>
#include <filesystem>
#include <exception>
#include <thread>

#include "core/rng.h"
#include "harness.h"
#include "pool/codec.h"
#include "quant/calibrate.h"
#include "runtime/executor.h"
#include "runtime/pipeline.h"

namespace perfbench {
namespace {

using bswp::Session;
using bswp::runtime::CompileOptions;
using bswp::runtime::HostLaneSelect;

constexpr int kImageSize = 16;
constexpr float kWidth = 0.5f;
constexpr int kCalibrationSamples = 32;
constexpr int kBatchNormSeedBatch = 16;

bswp::models::ModelOptions cifar_model_options() {
  bswp::models::ModelOptions mo;
  mo.in_channels = 3;
  mo.image_size = kImageSize;
  mo.num_classes = 10;
  mo.width = kWidth;
  return mo;
}

bswp::data::SyntheticCifarOptions cifar_options(std::uint64_t seed, int size) {
  bswp::data::SyntheticCifarOptions o;
  o.num_classes = 10;
  o.train_size = size;
  o.test_size = size;
  o.image_size = kImageSize;
  o.templates_per_class = 4;
  o.noise_stddev = 0.15f;
  o.seed = seed;
  return o;
}

/// The fixed calibration set (never the workload seed: the compiled network
/// must not depend on it).
const bswp::data::Dataset& calibration_set() {
  static const bswp::data::SyntheticCifar ds(cifar_options(42, kCalibrationSamples), /*train=*/true);
  return ds;
}

/// An untrained graph with fixed-seed weights. Its BatchNorm statistics are
/// seeded by one training-mode pass, as Deployment::seed_batchnorm does.
bswp::nn::Graph init_graph(bswp::nn::Graph g, std::uint64_t seed) {
  bswp::Rng rng(seed);
  g.init_weights(rng);
  return g;
}

void seed_batchnorm(bswp::nn::Graph& g) {
  const bswp::data::Batch b = calibration_set().batch(0, kBatchNormSeedBatch);
  g.forward(b.images, /*training=*/true);
}

bswp::quant::CalibrationResult calibrate(bswp::nn::Graph& g, int act_bits) {
  bswp::quant::CalibrateOptions qo;
  qo.num_samples = kCalibrationSamples;
  qo.act_bits = act_bits;
  return bswp::quant::calibrate(g, calibration_set(), qo);
}

std::unique_ptr<Session> compile(const bswp::nn::Graph& g, const bswp::pool::PooledNetwork* pooled,
                                 const bswp::quant::CalibrationResult& cal, int act_bits,
                                 HostLaneSelect lanes) {
  CompileOptions opt;
  opt.act_bits = act_bits;
  opt.host_lanes = lanes;
  return std::make_unique<Session>(bswp::runtime::compile(g, pooled, cal, opt));
}

ServedNet build_int8(bswp::nn::Graph g, HostLaneSelect lanes) {
  seed_batchnorm(g);
  const bswp::quant::CalibrationResult cal = calibrate(g, 8);
  ServedNet n;
  n.served = compile(g, nullptr, cal, 8, lanes);
  const Clock::time_point t = Clock::now();
  n.ref = compile(g, nullptr, cal, 8, HostLaneSelect::kScalar);
  n.reference_s = seconds_since(t);
  return n;
}

}  // namespace

PooledBuild build_pooled(const std::string& work_dir, bool references) {
  PooledBuild b;
  bswp::nn::Graph g = init_graph(bswp::models::build_resnet_s(cifar_model_options()), 7);

  bswp::pool::CodecOptions co;
  co.pool_size = 64;
  co.group_size = 8;
  Clock::time_point t = Clock::now();
  const bswp::pool::PooledNetwork pooled = bswp::pool::build_weight_pool(g, co);
  b.pool_build_s = seconds_since(t);

  // Deployed pooled weights are exact pool reconstructions, so BatchNorm
  // statistics and activation ranges are taken on the projected graph.
  bswp::pool::reconstruct_weights(g, pooled);
  seed_batchnorm(g);

  t = Clock::now();
  const bswp::quant::CalibrationResult cal4 = calibrate(g, 4);
  const bswp::quant::CalibrationResult cal8 = calibrate(g, 8);
  b.calibrate_s = seconds_since(t);

  t = Clock::now();
  const std::unique_ptr<Session> a4 = compile(g, &pooled, cal4, 4, HostLaneSelect::kCostModel);
  const std::unique_ptr<Session> a8 = compile(g, &pooled, cal8, 8, HostLaneSelect::kCostModel);
  b.compile_s = seconds_since(t);

  const std::string p4 = work_dir + "/pooled_a4.bswp";
  const std::string p8 = work_dir + "/pooled_a8.bswp";
  t = Clock::now();
  a4->save(p4);
  a8->save(p8);
  b.save_s = seconds_since(t);
  t = Clock::now();
  b.a4 = std::make_unique<Session>(Session::load(p4));
  b.a8 = std::make_unique<Session>(Session::load(p8));
  b.load_s = seconds_since(t);
  b.container_bytes = static_cast<double>(std::filesystem::file_size(p4));

  if (references) {
    t = Clock::now();
    b.ref_a4 = compile(g, &pooled, cal4, 4, HostLaneSelect::kScalar);
    b.ref_a8 = compile(g, &pooled, cal8, 8, HostLaneSelect::kScalar);
    b.reference_s = seconds_since(t);
  }
  return b;
}

std::vector<std::pair<std::string, double>> pooled_exact_counts(const PooledBuild& b,
                                                                const bswp::Tensor& image) {
  using bswp::sim::Event;
  bswp::sim::CostCounter c;
  b.a4->run(image, &c);
  const auto n = [&](Event e) { return static_cast<double>(c.count(e)); };
  const bswp::sim::MemoryFootprint fp = b.a4->footprint();
  return {
      {"kernels.pooled_a4.mac_events", n(Event::kMac)},
      {"kernels.pooled_a4.sram_read_events", n(Event::kSramRead)},
      {"kernels.pooled_a4.flash_read_events",
       n(Event::kFlashRandomByte) + n(Event::kFlashSeqByte) + n(Event::kFlashSeqWord)},
      {"kernels.pooled_a4.alu_events", n(Event::kAlu)},
      {"kernels.pooled_a4.requant_events", n(Event::kRequant)},
      {"sim.mcu_large_est_us", b.a4->estimate_latency(bswp::sim::mc_large()).seconds * 1e6},
      {"flash_bytes", static_cast<double>(fp.flash_bytes)},
      {"sram_bytes", static_cast<double>(fp.sram_bytes)},
      {"serialize.container_bytes", b.container_bytes},
  };
}

ServedNet build_int8_resnet() {
  return build_int8(init_graph(bswp::models::build_resnet_s(cifar_model_options()), 7),
                    HostLaneSelect::kSimd);
}

ServedNet build_tinyconv() {
  return build_int8(init_graph(bswp::models::build_tinyconv(cifar_model_options()), 8),
                    HostLaneSelect::kCostModel);
}

TokenLm build_token_lm(const bswp::models::TokenLmOptions& opt, std::uint64_t weight_seed) {
  bswp::nn::Graph g = init_graph(bswp::models::build_token_lm(opt), weight_seed);
  // The LM's own greedy rollouts are its calibration distribution (the
  // recipe tests/test_sessions.cpp pins the golden decode fixture with).
  bswp::models::TokenLmRollout cal_ds(g, opt, /*sequences=*/4, /*steps=*/8, weight_seed + 1);
  bswp::quant::CalibrateOptions co;
  co.num_samples = cal_ds.size();
  co.batch_size = 8;
  const bswp::quant::CalibrationResult cal = bswp::quant::calibrate(g, cal_ds, co);
  TokenLm lm;
  lm.opt = opt;
  lm.net.served = compile(g, nullptr, cal, 8, HostLaneSelect::kCostModel);
  const Clock::time_point t = Clock::now();
  lm.net.ref = compile(g, nullptr, cal, 8, HostLaneSelect::kScalar);
  lm.net.reference_s = seconds_since(t);
  return lm;
}

std::vector<bswp::Tensor> make_images(std::uint64_t seed, int n) {
  const bswp::data::SyntheticCifar ds(cifar_options(seed, n), /*train=*/false);
  std::vector<bswp::Tensor> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    bswp::Tensor x({1, 3, kImageSize, kImageSize});
    ds.sample(i, x.data());
    out.push_back(std::move(x));
  }
  return out;
}

std::vector<bswp::QTensor> reference_outputs(const Session& ref,
                                             const std::vector<bswp::Tensor>& xs, int threads) {
  std::vector<bswp::QTensor> out(xs.size());
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      try {
        bswp::runtime::Executor exec(ref.network());
        for (std::size_t i = static_cast<std::size_t>(t); i < xs.size();
             i += static_cast<std::size_t>(threads)) {
          out[i] = exec.run(xs[i]);
        }
      } catch (...) {
        errors[static_cast<std::size_t>(t)] = std::current_exception();
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return out;
}

bool same_output(const bswp::kernels::QView& got, const bswp::QTensor& want) {
  return got.len == want.data.size() &&
         std::memcmp(got.data, want.data.data(), got.len * sizeof(std::int16_t)) == 0 &&
         std::memcmp(&got.scale, &want.scale, sizeof(float)) == 0 &&
         got.zero_point == want.zero_point && got.bits == want.bits &&
         got.is_signed == want.is_signed;
}

bool same_output(const bswp::QTensor& got, const bswp::QTensor& want) {
  return got.data == want.data && std::memcmp(&got.scale, &want.scale, sizeof(float)) == 0 &&
         got.zero_point == want.zero_point && got.bits == want.bits &&
         got.is_signed == want.is_signed;
}

std::vector<int> replay_tokens(const Session& lm_session, const bswp::models::TokenLmOptions& opt,
                               const std::vector<int>& prompt, int max_tokens) {
  bswp::runtime::Executor exec(lm_session.network());
  std::vector<float> state;
  for (std::size_t i = 0; i + 1 < prompt.size(); ++i) {
    bswp::models::token_lm_decode(opt, exec.run(bswp::models::token_lm_input(opt, prompt[i], &state)),
                                  &state);
  }
  std::vector<int> tokens;
  int pending = prompt.back();
  for (int n = 0; n < max_tokens; ++n) {
    pending = bswp::models::token_lm_decode(
        opt, exec.run(bswp::models::token_lm_input(opt, pending, &state)), &state);
    tokens.push_back(pending);
  }
  return tokens;
}

}  // namespace perfbench
