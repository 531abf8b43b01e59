// Shared types for the integer (microcontroller-style) kernels.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "core/tensor.h"
#include "nn/layers.h"
#include "pool/codec.h"
#include "sim/cost_counter.h"

namespace bswp::kernels {

/// Non-owning view of a quantized activation — the currency of arena
/// execution. The data pointer targets a MemoryPlanner-assigned slot; shape
/// is a fixed rank<=4 array so views can be re-stamped every run without
/// heap traffic. Kernels read input views and write output views in place;
/// the owning-QTensor kernel entry points below are thin wrappers for tests
/// and one-off callers.
struct QView {
  int16_t* data = nullptr;
  std::size_t len = 0;
  int shape[4] = {1, 1, 1, 1};
  int rank = 0;
  float scale = 1.0f;
  int zero_point = 0;
  int bits = 8;
  bool is_signed = true;

  std::size_t size() const { return len; }
  int dim(int i) const { return shape[i]; }

  void set_shape(std::initializer_list<int> dims) {
    rank = 0;
    len = 1;
    for (int d : dims) {
      shape[rank++] = d;
      len *= static_cast<std::size_t>(d);
    }
  }
  /// Copy quantization metadata (not shape or data) from another view.
  void set_meta(const QView& o) {
    scale = o.scale;
    zero_point = o.zero_point;
    bits = o.bits;
    is_signed = o.is_signed;
  }
  bool same_shape(const QView& o) const {
    if (rank != o.rank) return false;
    for (int i = 0; i < rank; ++i)
      if (shape[i] != o.shape[i]) return false;
    return true;
  }

  /// View over an owning tensor. The const overload const_casts the data
  /// pointer: it exists so read-only kernel wrappers can view const inputs;
  /// callers must not write through it.
  static QView of(QTensor& t) {
    QView v = of(static_cast<const QTensor&>(t));
    return v;
  }
  static QView of(const QTensor& t) {
    check(t.shape.size() <= 4, "QView: rank > 4");
    QView v;
    v.data = const_cast<int16_t*>(t.data.data());
    v.len = t.data.size();
    v.rank = static_cast<int>(t.shape.size());
    for (int i = 0; i < v.rank; ++i) v.shape[i] = t.shape[static_cast<std::size_t>(i)];
    v.scale = t.scale;
    v.zero_point = t.zero_point;
    v.bits = t.bits;
    v.is_signed = t.is_signed;
    return v;
  }

  /// Materialize an owning copy (allocates; not for steady-state paths).
  QTensor to_qtensor() const {
    QTensor t(std::vector<int>(shape, shape + rank), bits, is_signed);
    t.scale = scale;
    t.zero_point = zero_point;
    check(t.data.size() == len, "QView: shape/len mismatch");
    std::copy(data, data + len, t.data.begin());
    return t;
  }
};

/// Quantization of one activation tensor: real = scale * (q - zero_point).
/// Shared by Requant (the domain a kernel writes) and LayerPlan (the domain a
/// plan's output occupies) so the two can never drift apart.
struct OutputQuant {
  float scale = 1.0f;  // real -> q step
  /// Offset-unsigned representation: signed intermediates (residual-add
  /// outputs) use zero_point = 2^(M-1) so the bit-serial kernels always see
  /// unsigned bit patterns.
  int zero_point = 0;
  int bits = 8;
  bool is_signed = false;

  int32_t qmin() const { return is_signed ? -(1 << (bits - 1)) : 0; }
  int32_t qmax() const { return is_signed ? (1 << (bits - 1)) - 1 : (1 << bits) - 1; }
};

/// Bound on x = real / out.scale before it is rounded: every requantizing
/// kernel (Requant::apply, add_q and the SIMD epilogue) clamps x into
/// [-kRequantSaturation, kRequantSaturation] first, so a huge or infinite
/// real saturates to qmin/qmax instead of wrapping through int32.
///
/// Why 2^24: load_network accepts |zero_point| <= 2^16 and bits in [1, 16],
/// so [qmin, qmax] lies inside [-2^15, 2^16 - 1]. For |x| >= 2^24,
/// lround(x) + zero_point is beyond 2^24 - 2^16 > qmax (or below
/// -2^24 + 2^16 < qmin), so the clamp changes no result the final
/// [qmin, qmax] clamp would not already saturate, and
/// |lround(x) + zero_point| <= 2^24 + 2^16 cannot overflow int32. Every
/// integer up to 2^24 is a float, so inside the bound truncation and
/// x - trunc(x) are exact — what the vector epilogue's rounding relies on.
inline constexpr float kRequantSaturation = 16777216.0f;  // 2^24

/// x clamped into [-kRequantSaturation, kRequantSaturation]; NaN goes to the
/// lower bound. Written as the two compare-selects a vector max/min
/// computes, so the SIMD epilogue reproduces it lane for lane.
inline float saturate_for_rounding(float x) {
  x = x > -kRequantSaturation ? x : -kRequantSaturation;
  return x < kRequantSaturation ? x : kRequantSaturation;
}

/// Per-layer requantization: maps an int32 accumulator to the next layer's
/// quantized activation domain. Per-output-channel scale/bias absorb both the
/// conv bias and any BatchNorm affine (BN is folded into requantization, not
/// into the shared weights — folding into weights would break pool sharing).
struct Requant {
  std::vector<float> scale;  // acc -> real, per output channel
  std::vector<float> bias;   // real-domain additive term per output channel
  OutputQuant out;           // quantization of the tensor this layer writes
  bool fuse_relu = true;

  int32_t qmin() const { return out.qmin(); }
  int32_t qmax() const { return out.qmax(); }

  int16_t apply(int32_t acc, int ch) const {
    float real = static_cast<float>(acc) * scale[static_cast<std::size_t>(ch)] +
                 bias[static_cast<std::size_t>(ch)];
    if (fuse_relu && real < 0.0f) real = 0.0f;
    const auto q =
        static_cast<int32_t>(std::lround(saturate_for_rounding(real / out.scale))) +
        out.zero_point;
    const int32_t lo = qmin(), hi = qmax();
    return static_cast<int16_t>(q < lo ? lo : (q > hi ? hi : q));
  }

  /// Uniform scale constructor (no BN, scalar conv bias vector `b_real`).
  static Requant uniform(int channels, float acc_scale, const std::vector<float>& b_real,
                         float out_scale, int out_bits, bool out_signed, bool fuse_relu);
};

/// Weight-pool indices packed in the bit-serial kernel's access order:
/// [ky][kx][g][o] so the innermost filter loop reads consecutive bytes.
struct PackedIndices {
  int kh = 1, kw = 1, groups = 0, out_ch = 0;
  std::vector<uint8_t> idx;

  static PackedIndices pack(const pool::PooledLayer& layer);

  std::size_t flat(int ky, int kx, int g, int o) const {
    return ((static_cast<std::size_t>(ky) * kw + kx) * groups + g) * out_ch +
           static_cast<std::size_t>(o);
  }
  uint8_t at(int ky, int kx, int g, int o) const { return idx[flat(ky, kx, g, o)]; }
  std::size_t storage_bytes() const { return idx.size(); }
};

}  // namespace bswp::kernels
