#include "sim/layer_cost.h"

#include <array>

#include "kernels/simd/simd_kernels.h"

namespace bswp::sim {

namespace {

using kernels::BitSerialVariant;

bool uses_cache(BitSerialVariant v) {
  return v == BitSerialVariant::kCached || v == BitSerialVariant::kCachedPrecompute ||
         v == BitSerialVariant::kCachedMemoize;
}

/// Events of one unpack_bits(group_size, bits) call.
void add_unpack(CostCounter& c, uint64_t calls, int group_size, int bits) {
  c.add(Event::kSramRead, calls * static_cast<uint64_t>(group_size));
  c.add(Event::kAlu, calls * 2ull * static_cast<uint64_t>(group_size) * bits);
  c.add(Event::kSramWrite, calls * static_cast<uint64_t>(bits));
  c.add(Event::kBranch, calls * static_cast<uint64_t>(group_size));
}

/// Events of one count_cache_fill(bits, lut) call.
void add_cache_fill(CostCounter& c, uint64_t calls, int bits, const pool::DotLut& lut) {
  const uint64_t words_per_block = (lut.block_bytes() + 3) / 4;
  c.add(Event::kFlashSeqWord, calls * static_cast<uint64_t>(bits) * words_per_block);
  c.add(Event::kSramWrite, calls * static_cast<uint64_t>(bits) * words_per_block);
  c.add(Event::kBranch, calls * static_cast<uint64_t>(bits));
}

/// Events of one accumulate_filters call, excluding the memoized variant's
/// per-distinct-index work (which depends on the index slice — added by the
/// callers, weighted per slice).
void add_accumulate(CostCounter& c, uint64_t calls, BitSerialVariant variant, int out_ch, int bits,
                    int pool_size, int group_size) {
  const auto F = static_cast<uint64_t>(out_ch);
  const auto M = static_cast<uint64_t>(bits);
  const Event lut_read = uses_cache(variant) ? Event::kSramRead : Event::kFlashRandomByte;
  switch (variant) {
    case BitSerialVariant::kNaive:
      add_unpack(c, calls * F, group_size, bits);
      c.add(Event::kFlashSeqByte, calls * F);
      c.add(lut_read, calls * F * M);
      c.add(Event::kAlu, calls * 2 * F * M);
      c.add(Event::kSramRead, calls * F);
      c.add(Event::kSramWrite, calls * F);
      c.add(Event::kBranch, calls * F);
      break;
    case BitSerialVariant::kInputReuse:
    case BitSerialVariant::kCached:
      c.add(Event::kFlashSeqByte, calls * F);
      c.add(lut_read, calls * F * M);
      c.add(Event::kAlu, calls * 2 * F * M);
      c.add(Event::kSramRead, calls * F);
      c.add(Event::kSramWrite, calls * F);
      c.add(Event::kBranch, calls * F);
      break;
    case BitSerialVariant::kCachedPrecompute: {
      const auto S = static_cast<uint64_t>(pool_size);
      c.add(Event::kSramRead, calls * S * M);
      c.add(Event::kAlu, calls * 2 * S * M);
      c.add(Event::kSramWrite, calls * S);
      c.add(Event::kBranch, calls * S);
      c.add(Event::kFlashSeqByte, calls * F);
      c.add(Event::kSramRead, calls * 2 * F);
      c.add(Event::kAlu, calls * F);
      c.add(Event::kSramWrite, calls * F);
      c.add(Event::kBranch, calls * F);
      break;
    }
    case BitSerialVariant::kCachedMemoize: {
      const auto S = static_cast<uint64_t>(pool_size);
      c.add(Event::kSramWrite, calls * ((S + 3) / 4));  // memo-valid reset
      c.add(Event::kFlashSeqByte, calls * F);
      c.add(Event::kSramRead, calls * 3 * F);
      c.add(Event::kAlu, calls * F);
      c.add(Event::kSramWrite, calls * F);
      c.add(Event::kBranch, calls * 2 * F);
      break;
    }
  }
}

/// Per-miss memoization work: the bit-serial dot product computed on first
/// use of each distinct pool index in a filter-loop slice.
void add_memo_misses(CostCounter& c, uint64_t misses, int bits) {
  c.add(Event::kSramRead, misses * static_cast<uint64_t>(bits));
  c.add(Event::kAlu, misses * 2ull * static_cast<uint64_t>(bits));
  c.add(Event::kSramWrite, misses * 2);
}

/// Distinct index count among the out_ch entries of one (ky, kx, g) slice.
uint64_t distinct_in_slice(const kernels::PackedIndices& idx, int ky, int kx, int g,
                           int pool_size) {
  std::array<bool, 256> seen{};
  check(pool_size <= 256, "layer_cost: pool size exceeds uint8 index range");
  uint64_t d = 0;
  for (int o = 0; o < idx.out_ch; ++o) {
    const uint8_t s = idx.at(ky, kx, g, o);
    if (!seen[s]) {
      seen[s] = true;
      ++d;
    }
  }
  return d;
}

/// Output positions for which kernel tap (ky, kx) lands in bounds; mirrors
/// the `iy/ix` guards of the kernel loops.
uint64_t valid_positions_1d(int out_dim, int in_dim, int k_off, int stride, int pad) {
  uint64_t n = 0;
  for (int o = 0; o < out_dim; ++o) {
    const int i = o * stride + k_off - pad;
    if (i >= 0 && i < in_dim) ++n;
  }
  return n;
}

}  // namespace

CostCounter bitserial_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                const pool::DotLut& lut, const kernels::PackedIndices& indices,
                                kernels::BitSerialVariant variant) {
  CostCounter c;
  const int G = lut.group_size;
  const int gcnt = spec.in_ch / G;
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  const auto P = static_cast<uint64_t>(oh) * static_cast<uint64_t>(ow);
  const auto F = static_cast<uint64_t>(spec.out_ch);

  // Valid (position, tap) pairs, factored per tap so the memoized variant can
  // weight each slice's distinct-index count by how often the slice runs.
  uint64_t contexts = 0;
  for (int ky = 0; ky < spec.kh; ++ky) {
    const uint64_t vy = valid_positions_1d(oh, in_h, ky, spec.stride, spec.pad);
    for (int kx = 0; kx < spec.kw; ++kx) {
      const uint64_t vx = valid_positions_1d(ow, in_w, kx, spec.stride, spec.pad);
      const uint64_t taps = vy * vx;
      contexts += taps * static_cast<uint64_t>(gcnt);
      if (variant == BitSerialVariant::kCachedMemoize && taps > 0) {
        for (int g = 0; g < gcnt; ++g) {
          add_memo_misses(c, taps * distinct_in_slice(indices, ky, kx, g, lut.pool_size),
                          act_bits);
        }
      }
    }
  }

  // Per output position: accumulator init + requantize + store.
  c.add(Event::kSramWrite, 2 * P * F);
  c.add(Event::kSramRead, P * F);
  c.add(Event::kRequant, P * F);

  if (variant != BitSerialVariant::kNaive) add_unpack(c, contexts, G, act_bits);
  if (uses_cache(variant)) add_cache_fill(c, contexts, act_bits, lut);
  add_accumulate(c, contexts, variant, spec.out_ch, act_bits, lut.pool_size, G);
  c.add(Event::kBranch, contexts);  // per-group-context loop tally
  return c;
}

CostCounter bitserial_linear_cost(int in_features, int act_bits, const pool::DotLut& lut,
                                  const kernels::PackedIndices& indices,
                                  kernels::BitSerialVariant variant) {
  CostCounter c;
  const int G = lut.group_size;
  const auto contexts = static_cast<uint64_t>(in_features / G);
  const auto F = static_cast<uint64_t>(indices.out_ch);

  c.add(Event::kSramWrite, 2 * F);  // accumulator init + output store
  c.add(Event::kSramRead, F);
  c.add(Event::kRequant, F);

  if (variant == BitSerialVariant::kCachedMemoize) {
    for (int g = 0; g < in_features / G; ++g) {
      add_memo_misses(c, distinct_in_slice(indices, 0, 0, g, lut.pool_size), act_bits);
    }
  }
  if (variant != BitSerialVariant::kNaive) add_unpack(c, contexts, G, act_bits);
  if (uses_cache(variant)) add_cache_fill(c, contexts, act_bits, lut);
  add_accumulate(c, contexts, variant, indices.out_ch, act_bits, lut.pool_size, G);
  // (bitserial_linear has no per-context branch tally, unlike the conv.)
  return c;
}

CostCounter baseline_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w) {
  CostCounter c;
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  const auto P = static_cast<uint64_t>(oh) * static_cast<uint64_t>(ow);
  const int cg = spec.in_ch / spec.groups;

  uint64_t valid = 0;  // sum over positions of in-bounds taps
  for (int ky = 0; ky < spec.kh; ++ky) {
    const uint64_t vy = valid_positions_1d(oh, in_h, ky, spec.stride, spec.pad);
    for (int kx = 0; kx < spec.kw; ++kx) {
      valid += vy * valid_positions_1d(ow, in_w, kx, spec.stride, spec.pad);
    }
  }

  const uint64_t patch = valid * static_cast<uint64_t>(spec.in_ch);
  const uint64_t work = valid * static_cast<uint64_t>(cg) * static_cast<uint64_t>(spec.out_ch);
  c.add(Event::kSramRead, patch + work);
  c.add(Event::kSramWrite, patch + P * static_cast<uint64_t>(spec.out_ch));
  c.add(Event::kFlashSeqByte, work);
  c.add(Event::kMac, work);
  c.add(Event::kAlu, 3 * work);
  c.add(Event::kBranch, P * static_cast<uint64_t>(spec.out_ch));
  c.add(Event::kRequant, P * static_cast<uint64_t>(spec.out_ch));
  return c;
}

CostCounter baseline_linear_cost(int in_features, int out_features) {
  CostCounter c;
  const uint64_t taps = static_cast<uint64_t>(in_features) * static_cast<uint64_t>(out_features);
  c.add(Event::kFlashSeqByte, taps);
  c.add(Event::kSramRead, taps);
  c.add(Event::kMac, taps);
  c.add(Event::kAlu, 3 * taps);
  c.add(Event::kRequant, static_cast<uint64_t>(out_features));
  c.add(Event::kSramWrite, static_cast<uint64_t>(out_features));
  return c;
}

namespace {

/// Filter-loop events of the SIMD int8 dot product: per (position, filter)
/// `vec` 16-lane madd steps + `tail` scalar taps (each one kMac + column and
/// weight stream reads), a horizontal reduce, and the requantized store.
void add_simd_dot_filters(CostCounter& c, uint64_t pf, uint64_t vec, uint64_t tail) {
  c.add(Event::kMac, pf * (vec + tail));
  c.add(Event::kSramRead, pf * 2 * (vec + tail));
  c.add(Event::kAlu, pf * 4);  // horizontal reduce + store addressing
  c.add(Event::kBranch, pf);
  c.add(Event::kRequant, pf);
  c.add(Event::kSramWrite, pf);
}

}  // namespace

CostCounter simd_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w) {
  CostCounter c;
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  const auto P = static_cast<uint64_t>(oh) * static_cast<uint64_t>(ow);
  const int cg = spec.in_ch / spec.groups;
  const uint64_t K = static_cast<uint64_t>(cg) * spec.kh * spec.kw;
  // Column staging: every tap (valid or zero-padded) is written once per
  // (position, group) and read back ~once per 16-lane step stream.
  const uint64_t stage = P * static_cast<uint64_t>(spec.groups) * K;
  c.add(Event::kSramWrite, stage);
  c.add(Event::kSramRead, stage);
  add_simd_dot_filters(c, P * static_cast<uint64_t>(spec.out_ch), K / 16, K % 16);
  return c;
}

CostCounter simd_linear_cost(int in_features, int out_features) {
  CostCounter c;
  const auto fin = static_cast<uint64_t>(in_features);
  // The shifted input row is staged once for the whole filter loop.
  c.add(Event::kSramRead, fin);
  c.add(Event::kSramWrite, fin);
  add_simd_dot_filters(c, static_cast<uint64_t>(out_features), fin / 16, fin % 16);
  return c;
}

namespace {

/// Per-context events of the SIMD bit-serial pipeline: unpack the group
/// vector, precompute all S pool dot products (8 int32 lanes per step on an
/// input-oriented LUT, scalar on a weight-oriented one), then gather-
/// accumulate 8 output channels per step.
void add_simd_bitserial_context(CostCounter& c, uint64_t contexts, int out_ch, int bits,
                                const pool::DotLut& lut) {
  const auto F = static_cast<uint64_t>(out_ch);
  const auto M = static_cast<uint64_t>(bits);
  const auto S = static_cast<uint64_t>(lut.pool_size);
  add_unpack(c, contexts, lut.group_size, bits);
  if (lut.order == pool::LutOrder::kInputOriented) {
    const uint64_t steps = (S + 7) / 8;
    c.add(Event::kSramRead, contexts * M * 2 * steps);
    c.add(Event::kAlu, contexts * M * 2 * steps);
    c.add(Event::kSramWrite, contexts * M * steps);
    c.add(Event::kBranch, contexts * M);
  } else {
    // Strided rows: scalar precompute, same shape as the scalar
    // cached+precompute variant's pool loop.
    c.add(Event::kSramRead, contexts * S * M);
    c.add(Event::kAlu, contexts * 2 * S * M);
    c.add(Event::kSramWrite, contexts * S);
    c.add(Event::kBranch, contexts * S);
  }
  // Gather step: 8 packed indices (one 64-bit load), 8 gathered values + the
  // accumulator vector, add + store.
  const uint64_t gsteps = (F + 7) / 8;
  c.add(Event::kFlashSeqWord, contexts * gsteps);
  c.add(Event::kSramRead, contexts * gsteps * 9);
  c.add(Event::kAlu, contexts * gsteps * 2);
  c.add(Event::kSramWrite, contexts * gsteps);
  c.add(Event::kBranch, contexts * gsteps);
}

/// The layer-table path of simd_bitserial_conv2d for one image: byte
/// bit-planes unpacked 8 pixels per vector step (G loads, shift/mask/or per
/// element, one store per plane), one 2^G x F table per (tap, group) with an
/// in-bounds window (an 8-filter gather + store per (bit-vector, step)), then
/// per valid context M plane-byte reads and M row adds of F lanes into the
/// position's accumulator.
void add_layer_table(CostCounter& c, const nn::ConvSpec& spec, int in_h, int in_w,
                     uint64_t contexts, int act_bits, const pool::DotLut& lut) {
  const auto G = static_cast<uint64_t>(lut.group_size);
  const auto gcnt = static_cast<uint64_t>(spec.in_ch / lut.group_size);
  const auto M = static_cast<uint64_t>(act_bits);
  const uint64_t fsteps = (static_cast<uint64_t>(spec.out_ch) + 7) / 8;
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);

  const uint64_t psteps = (static_cast<uint64_t>(in_h) * in_w + 7) / 8 * gcnt * M;
  c.add(Event::kSramRead, psteps * G);
  c.add(Event::kAlu, psteps * 3 * G);
  c.add(Event::kSramWrite, psteps);
  c.add(Event::kBranch, psteps);

  uint64_t tables = 0;
  for (int ky = 0; ky < spec.kh; ++ky) {
    const bool rows = valid_positions_1d(oh, in_h, ky, spec.stride, spec.pad) > 0;
    for (int kx = 0; kx < spec.kw; ++kx) {
      if (rows && valid_positions_1d(ow, in_w, kx, spec.stride, spec.pad) > 0) tables += gcnt;
    }
  }
  const uint64_t tsteps = tables * static_cast<uint64_t>(lut.num_bit_vectors()) * fsteps;
  c.add(Event::kSramRead, tsteps * 9);
  c.add(Event::kSramWrite, tsteps);
  c.add(Event::kBranch, tsteps);

  c.add(Event::kSramRead, contexts * (M + M * fsteps + fsteps));
  c.add(Event::kAlu, contexts * 2 * M * fsteps);
  c.add(Event::kSramWrite, contexts * fsteps);
  c.add(Event::kBranch, contexts * M);
}

}  // namespace

CostCounter simd_bitserial_conv_cost(const nn::ConvSpec& spec, int in_h, int in_w, int act_bits,
                                     const pool::DotLut& lut) {
  CostCounter c;
  const int G = lut.group_size;
  const int gcnt = spec.in_ch / G;
  const int oh = spec.out_h(in_h), ow = spec.out_w(in_w);
  const auto P = static_cast<uint64_t>(oh) * static_cast<uint64_t>(ow);
  const auto F = static_cast<uint64_t>(spec.out_ch);

  uint64_t contexts = 0;
  for (int ky = 0; ky < spec.kh; ++ky) {
    const uint64_t vy = valid_positions_1d(oh, in_h, ky, spec.stride, spec.pad);
    for (int kx = 0; kx < spec.kw; ++kx) {
      contexts += vy * valid_positions_1d(ow, in_w, kx, spec.stride, spec.pad) *
                  static_cast<uint64_t>(gcnt);
    }
  }

  c.add(Event::kSramWrite, 2 * P * F);  // accumulator init + output store
  c.add(Event::kSramRead, P * F);
  c.add(Event::kRequant, P * F);
  if (kernels::simd::simd_bitserial_uses_layer_table(spec, in_h, in_w, act_bits, lut)) {
    add_layer_table(c, spec, in_h, in_w, contexts, act_bits, lut);
    return c;
  }
  add_simd_bitserial_context(c, contexts, spec.out_ch, act_bits, lut);
  c.add(Event::kBranch, contexts);
  return c;
}

CostCounter simd_bitserial_linear_cost(int in_features, int out_features, int act_bits,
                                       const pool::DotLut& lut) {
  CostCounter c;
  const auto contexts = static_cast<uint64_t>(in_features / lut.group_size);
  const auto F = static_cast<uint64_t>(out_features);
  c.add(Event::kSramWrite, 2 * F);
  c.add(Event::kSramRead, F);
  c.add(Event::kRequant, F);
  add_simd_bitserial_context(c, contexts, out_features, act_bits, lut);
  return c;
}

}  // namespace bswp::sim
