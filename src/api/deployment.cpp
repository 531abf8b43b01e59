#include <stdexcept>

#include "api/bswp.h"

namespace bswp {

Deployment Deployment::from(const nn::Graph& graph) {
  check(graph.num_nodes() > 0, "Deployment::from: empty graph");
  return Deployment(graph);
}

Deployment& Deployment::with_pool(const pool::CodecOptions& options) {
  check(options.pool_size > 0, "Deployment::with_pool: pool_size must be positive");
  check(options.pool_size <= 256,
        "Deployment::with_pool: pool_size > 256 cannot be index-packed into bytes");
  check(options.group_size > 0, "Deployment::with_pool: group_size must be positive");
  pool_options_ = options;
  pool_source_ = PoolSource::kOptions;
  has_pool_ = false;  // (re)cluster lazily
  return *this;
}

Deployment& Deployment::with_pool(pool::PooledNetwork pooled) {
  check(pooled.pool.size() > 0, "Deployment::with_pool: pooled network has an empty pool");
  pooled_ = std::move(pooled);
  pool_source_ = PoolSource::kProvided;
  has_pool_ = true;
  return *this;
}

void Deployment::ensure_pool() {
  if (pool_source_ == PoolSource::kOptions && !has_pool_) {
    pooled_ = pool::build_weight_pool(graph_, pool_options_);
    has_pool_ = true;
  }
}

Deployment& Deployment::finetune(const data::Dataset& train, const data::Dataset& test,
                                 const pool::FinetuneOptions& options) {
  if (pool_source_ == PoolSource::kNone) {
    throw std::invalid_argument(
        "Deployment::finetune: no weight pool configured (call with_pool first)");
  }
  ensure_pool();
  finetuned_acc_ = pool::finetune_pooled(graph_, pooled_, train, test, options).final_test_acc;
  return *this;
}

Deployment& Deployment::act_bits(int bits) {
  check(bits >= 1 && bits <= 8, "Deployment::act_bits: activation bitwidth must be in 1..8");
  opts_.act_bits = bits;
  return *this;
}

Deployment& Deployment::weight_bits(int bits) {
  check(bits >= 2 && bits <= 8, "Deployment::weight_bits: weight bitwidth must be in 2..8");
  opts_.weight_bits = bits;
  return *this;
}

Deployment& Deployment::lut_bits(int bits) {
  check(bits >= 2 && bits <= 16, "Deployment::lut_bits: LUT bitwidth must be in 2..16");
  opts_.lut_bits = bits;
  return *this;
}

Deployment& Deployment::lut_order(pool::LutOrder order) {
  opts_.lut_order = order;
  return *this;
}

Deployment& Deployment::cost_profile(const sim::McuProfile& profile) {
  opts_.cost_profile = profile;
  return *this;
}

Deployment& Deployment::host_lanes(runtime::HostLaneSelect mode) {
  opts_.host_lanes = mode;
  return *this;
}

Deployment& Deployment::host_profile(const sim::McuProfile& profile) {
  opts_.host_profile = profile;
  return *this;
}

Deployment& Deployment::pass_trace(bool enabled) {
  opts_.pass_trace = enabled;
  return *this;
}

Deployment& Deployment::force_variant(kernels::BitSerialVariant variant) {
  opts_.force_variant = true;
  opts_.forced_variant = variant;
  return *this;
}

Deployment& Deployment::with_options(const runtime::CompileOptions& options) {
  act_bits(options.act_bits);
  weight_bits(options.weight_bits);
  lut_bits(options.lut_bits);
  lut_order(options.lut_order);
  cost_profile(options.cost_profile);
  host_lanes(options.host_lanes);
  host_profile(options.host_profile);
  pass_trace(options.pass_trace);
  opts_.force_variant = options.force_variant;
  opts_.forced_variant = options.forced_variant;
  return *this;
}

Deployment& Deployment::calibrate(const data::Dataset& ds,
                                  const quant::CalibrateOptions& options) {
  check(ds.size() > 0, "Deployment::calibrate: empty calibration dataset");
  cal_ds_ = &ds;
  cal_options_ = options;
  return *this;
}

Deployment& Deployment::seed_batchnorm(int batch) {
  check(batch > 0, "Deployment::seed_batchnorm: batch must be positive");
  seed_bn_batch_ = batch;
  return *this;
}

void Deployment::validate() const {
  if (cal_ds_ == nullptr) {
    throw std::invalid_argument(
        "Deployment::compile: no calibration dataset (call calibrate(ds) first)");
  }
  if (opts_.force_variant && pool_source_ == PoolSource::kNone) {
    throw std::invalid_argument(
        "Deployment::compile: forced bit-serial variant '" +
        std::string(kernels::variant_name(opts_.forced_variant)) +
        "' requires a weight pool (call with_pool first)");
  }
  // Note: lut_bits > weight_bits is deliberately allowed — LUT entries hold
  // *group dot products*, not single weights, so Bl=16 against Bw=8 is the
  // paper's exact-LUT configuration (Table 5's "16" column, entry_scale 1).
}

Session Deployment::compile() {
  validate();
  ensure_pool();

  // Deployed pooled weights are exact pool reconstructions; calibrating on
  // anything else would pick ranges for weights the MCU never sees. The
  // projection is idempotent, so re-running it after finetune() is free.
  if (has_pool_) pool::reconstruct_weights(graph_, pooled_);

  // Seed BN statistics once only: a second compile() must see the same
  // running stats, or repeated builds of the same deployment would drift.
  if (seed_bn_batch_ > 0 && !bn_seeded_) {
    const data::Batch b = cal_ds_->batch(0, std::min(seed_bn_batch_, cal_ds_->size()));
    graph_.forward(b.images, /*training=*/true);
    bn_seeded_ = true;
  }

  quant::CalibrateOptions co = cal_options_;
  co.act_bits = opts_.act_bits;  // keep calibration and compilation in sync
  const quant::CalibrationResult cal = quant::calibrate(graph_, *cal_ds_, co);

  report_ = runtime::CompileReport{};
  return Session(
      runtime::compile(graph_, has_pool_ ? &pooled_ : nullptr, cal, opts_, &report_));
}

}  // namespace bswp
