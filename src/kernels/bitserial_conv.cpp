#include "kernels/bitserial_conv.h"

#include <algorithm>

#include "kernels/bit_unpack.h"

namespace bswp::kernels {

using sim::Event;

const char* variant_name(BitSerialVariant v) {
  switch (v) {
    case BitSerialVariant::kNaive: return "naive";
    case BitSerialVariant::kInputReuse: return "input-reuse";
    case BitSerialVariant::kCached: return "lut-cached";
    case BitSerialVariant::kCachedPrecompute: return "cached+precompute";
    case BitSerialVariant::kCachedMemoize: return "cached+memoize";
  }
  return "?";
}

namespace {

bool uses_cache(BitSerialVariant v) {
  return v == BitSerialVariant::kCached || v == BitSerialVariant::kCachedPrecompute ||
         v == BitSerialVariant::kCachedMemoize;
}

/// Count the flash->SRAM copy of the M active input-oriented LUT blocks
/// (Figure 6). Word-granularity transfers; one block per bit plane.
void count_cache_fill(sim::CostCounter* counter, int bits, const pool::DotLut& lut) {
  if (counter == nullptr) return;
  const uint64_t words_per_block = (lut.block_bytes() + 3) / 4;
  counter->add(Event::kFlashSeqWord, static_cast<uint64_t>(bits) * words_per_block);
  counter->add(Event::kSramWrite, static_cast<uint64_t>(bits) * words_per_block);
  counter->add(Event::kBranch, static_cast<uint64_t>(bits));
}

/// Core accumulation over one decomposed activation vector for all filters.
/// `idx_base` points at the [g][o] slice of the packed indices for the
/// current kernel position; the o-loop reads consecutive bytes.
struct GroupContext {
  const pool::DotLut& lut;
  const uint8_t* idx;  // out_ch consecutive indices
  int out_ch;
  int bits;
  const uint32_t* bitvec;  // bits entries
};

void accumulate_filters(const GroupContext& ctx, BitSerialVariant variant, int32_t* acc,
                        const int16_t* raw_group, int group_size, int32_t* precomp_buf,
                        uint8_t* memo_valid, sim::CostCounter* counter) {
  const bool cached = uses_cache(variant);
  const Event lut_read = cached ? Event::kSramRead : Event::kFlashRandomByte;
  const int S = ctx.lut.pool_size;

  switch (variant) {
    case BitSerialVariant::kNaive: {
      // Bit unpacking recomputed inside the filter loop (no input reuse).
      uint32_t local_bits[16];
      for (int o = 0; o < ctx.out_ch; ++o) {
        unpack_bits(raw_group, group_size, ctx.bits, local_bits, counter);
        const int s = ctx.idx[o];
        int32_t v = 0;
        for (int j = 0; j < ctx.bits; ++j) v += ctx.lut.at(local_bits[j], s) << j;
        acc[o] += v;
        if (counter != nullptr) {
          counter->add(Event::kFlashSeqByte, 1);  // index read
          counter->add(lut_read, static_cast<uint64_t>(ctx.bits));
          counter->add(Event::kAlu, 2ull * ctx.bits);
          counter->add(Event::kSramRead, 1);  // accumulator
          counter->add(Event::kSramWrite, 1);
          counter->add(Event::kBranch, 1);
        }
      }
      break;
    }
    case BitSerialVariant::kInputReuse:
    case BitSerialVariant::kCached: {
      for (int o = 0; o < ctx.out_ch; ++o) {
        const int s = ctx.idx[o];
        int32_t v = 0;
        for (int j = 0; j < ctx.bits; ++j) v += ctx.lut.at(ctx.bitvec[j], s) << j;
        acc[o] += v;
      }
      if (counter != nullptr) {
        const auto F = static_cast<uint64_t>(ctx.out_ch);
        counter->add(Event::kFlashSeqByte, F);                        // index reads
        counter->add(lut_read, F * static_cast<uint64_t>(ctx.bits));  // result lookups
        counter->add(Event::kAlu, 2ull * F * ctx.bits);               // shift + accumulate
        counter->add(Event::kSramRead, F);                            // accumulator read
        counter->add(Event::kSramWrite, F);                           // accumulator write
        counter->add(Event::kBranch, F);
      }
      break;
    }
    case BitSerialVariant::kCachedPrecompute: {
      // Algorithm 1 lines 10-14: bit-serial loop over the *pool*, results
      // stored in RAM; filter loop (lines 15-16) is pure lookups.
      for (int s = 0; s < S; ++s) {
        int32_t v = 0;
        for (int j = 0; j < ctx.bits; ++j) v += ctx.lut.at(ctx.bitvec[j], s) << j;
        precomp_buf[s] = v;
      }
      for (int o = 0; o < ctx.out_ch; ++o) acc[o] += precomp_buf[ctx.idx[o]];
      if (counter != nullptr) {
        const auto F = static_cast<uint64_t>(ctx.out_ch);
        const auto Su = static_cast<uint64_t>(S);
        counter->add(Event::kSramRead, Su * static_cast<uint64_t>(ctx.bits));  // lut cache
        counter->add(Event::kAlu, 2ull * Su * ctx.bits);
        counter->add(Event::kSramWrite, Su);  // precomputed results
        counter->add(Event::kBranch, Su);
        counter->add(Event::kFlashSeqByte, F);  // index reads
        counter->add(Event::kSramRead, 2 * F);  // precomputed result + accumulator
        counter->add(Event::kAlu, F);
        counter->add(Event::kSramWrite, F);
        counter->add(Event::kBranch, F);
      }
      break;
    }
    case BitSerialVariant::kCachedMemoize: {
      // Appendix alternative: compute each distinct pool dot product on first
      // use inside the filter loop.
      std::fill(memo_valid, memo_valid + S, 0);
      if (counter != nullptr) counter->add(Event::kSramWrite, static_cast<uint64_t>((S + 3) / 4));
      for (int o = 0; o < ctx.out_ch; ++o) {
        const int s = ctx.idx[o];
        if (!memo_valid[s]) {
          int32_t v = 0;
          for (int j = 0; j < ctx.bits; ++j) v += ctx.lut.at(ctx.bitvec[j], s) << j;
          precomp_buf[s] = v;
          memo_valid[s] = 1;
          if (counter != nullptr) {
            counter->add(Event::kSramRead, static_cast<uint64_t>(ctx.bits));
            counter->add(Event::kAlu, 2ull * ctx.bits);
            counter->add(Event::kSramWrite, 2);  // memo value + valid flag
          }
        }
        acc[o] += precomp_buf[s];
        if (counter != nullptr) {
          counter->add(Event::kFlashSeqByte, 1);  // index
          counter->add(Event::kSramRead, 3);      // valid flag + memo + accumulator
          counter->add(Event::kAlu, 1);
          counter->add(Event::kSramWrite, 1);
          counter->add(Event::kBranch, 2);  // loop + memo-hit test
        }
      }
      break;
    }
  }
}

/// bitserial_conv2d's body, instantiated twice from this one source.
/// kFixedBatch = 1 makes the image count a compile-time constant, so the
/// image loop and its stride arithmetic fold away and the single-image
/// (latency) path keeps a register-lean context loop; with a run-time count
/// the per-context bookkeeping spills and batch 1 runs measurably slower
/// than a dedicated single-image core. kFixedBatch = 0 takes the count from
/// `batch_arg`.
template <int kFixedBatch>
void conv2d_core(const QView& in, std::size_t in_stride, int batch_arg,
                 const PackedIndices& indices, const pool::DotLut& lut, const nn::ConvSpec& spec,
                 const Requant& rq, BitSerialVariant variant, QView& out, std::size_t out_stride,
                 ScratchArena& scratch, sim::CostCounter* counter) {
  const int batch = kFixedBatch > 0 ? kFixedBatch : batch_arg;
  check(in.rank == 4 && in.shape[0] == 1, "bitserial_conv2d: input must be 1xCxHxW");
  check(!in.is_signed, "bitserial_conv2d: activations must be unsigned-quantized");
  check(spec.groups == 1, "bitserial_conv2d: grouped convs are not poolable");
  check(spec.in_ch % lut.group_size == 0, "bitserial_conv2d: in_ch must divide by group size");
  check(indices.out_ch == spec.out_ch && indices.kh == spec.kh && indices.kw == spec.kw &&
            indices.groups == spec.in_ch / lut.group_size,
        "bitserial_conv2d: index map does not match conv spec");
  check(batch >= 1, "bitserial_conv2d: batch must be >= 1");
  const int M = in.bits;
  check(M >= 1 && M <= 16, "bitserial_conv2d: activation bits out of range");

  const int G = lut.group_size;
  const int gcnt = spec.in_ch / G;
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const int F = spec.out_ch;
  const int S = lut.pool_size;

  out.set_shape({1, F, oh, ow});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;

  // Accumulators carry a batch dimension (image b owns acc + b*F); the
  // staging buffers are reused image to image inside each context.
  int32_t* acc = scratch.alloc<int32_t>(static_cast<std::size_t>(batch) * F);
  int32_t* precomp = scratch.alloc<int32_t>(static_cast<std::size_t>(S));
  uint8_t* memo_valid = scratch.alloc<uint8_t>(static_cast<std::size_t>(S));
  int16_t* group_vals = scratch.alloc<int16_t>(static_cast<std::size_t>(G));
  uint32_t bitvec[16] = {};

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      std::fill(acc, acc + static_cast<std::size_t>(batch) * F, 0);
      sim::tally(counter, Event::kSramWrite, static_cast<uint64_t>(F) * batch);
      for (int ky = 0; ky < spec.kh; ++ky) {
        const int iy = oy * spec.stride + ky - spec.pad;
        if (iy < 0 || iy >= h) continue;
        for (int kx = 0; kx < spec.kw; ++kx) {
          const int ix = ox * spec.stride + kx - spec.pad;
          if (ix < 0 || ix >= w) continue;
          for (int g = 0; g < gcnt; ++g) {
            GroupContext ctx{lut, indices.idx.data() + indices.flat(ky, kx, g, 0), F, M, bitvec};
            // Image loop inside the (tap, group) context: the index row and
            // cached LUT blocks stay hot across the batch. Per image the
            // gather / unpack / accumulate sequence is the batch-1 sequence
            // exactly — tallies and int32 accumulation included.
            for (int b = 0; b < batch; ++b) {
              const int16_t* src = in.data + static_cast<std::size_t>(b) * in_stride;
              for (int j = 0; j < G; ++j) {
                group_vals[static_cast<std::size_t>(j)] =
                    src[(static_cast<std::size_t>(g * G + j) * h + iy) * w + ix];
              }
              if (variant != BitSerialVariant::kNaive) {
                unpack_bits(group_vals, G, M, bitvec, counter);
              }
              if (uses_cache(variant)) count_cache_fill(counter, M, lut);
              accumulate_filters(ctx, variant, acc + static_cast<std::size_t>(b) * F, group_vals,
                                 G, precomp, memo_valid, counter);
              sim::tally(counter, Event::kBranch, 1);
            }
          }
        }
      }
      for (int b = 0; b < batch; ++b) {
        const int32_t* acc_b = acc + static_cast<std::size_t>(b) * F;
        int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
        for (int o = 0; o < F; ++o) {
          dst[(static_cast<std::size_t>(o) * oh + oy) * ow + ox] = rq.apply(acc_b[o], o);
        }
      }
      if (counter != nullptr) {
        counter->add(Event::kRequant, static_cast<uint64_t>(F) * batch);
        counter->add(Event::kSramRead, static_cast<uint64_t>(F) * batch);
        counter->add(Event::kSramWrite, static_cast<uint64_t>(F) * batch);
      }
    }
  }
}

}  // namespace

void bitserial_conv2d(const QView& in, std::size_t in_stride, int batch,
                      const PackedIndices& indices, const pool::DotLut& lut,
                      const nn::ConvSpec& spec, const Requant& rq, BitSerialVariant variant,
                      QView& out, std::size_t out_stride, ScratchArena& scratch,
                      sim::CostCounter* counter) {
  if (batch == 1) {
    conv2d_core<1>(in, in_stride, batch, indices, lut, spec, rq, variant, out, out_stride,
                   scratch, counter);
  } else {
    conv2d_core<0>(in, in_stride, batch, indices, lut, spec, rq, variant, out, out_stride,
                   scratch, counter);
  }
}

void bitserial_linear(const QView& in, std::size_t in_stride, int batch,
                      const PackedIndices& indices, const pool::DotLut& lut, const Requant& rq,
                      BitSerialVariant variant, QView& out, std::size_t out_stride,
                      ScratchArena& scratch, sim::CostCounter* counter) {
  check(in.rank == 2 && in.shape[0] == 1, "bitserial_linear: input must be 1xF");
  check(!in.is_signed, "bitserial_linear: activations must be unsigned-quantized");
  check(batch >= 1, "bitserial_linear: batch must be >= 1");
  const int fin = in.dim(1);
  const int G = lut.group_size;
  check(fin % G == 0, "bitserial_linear: input features must divide by group size");
  check(indices.kh == 1 && indices.kw == 1 && indices.groups == fin / G,
        "bitserial_linear: index map mismatch");
  const int M = in.bits;
  const int F = indices.out_ch;
  const int S = lut.pool_size;

  out.set_shape({1, F});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;

  int32_t* acc = scratch.alloc<int32_t>(static_cast<std::size_t>(batch) * F);
  int32_t* precomp = scratch.alloc<int32_t>(static_cast<std::size_t>(S));
  uint8_t* memo_valid = scratch.alloc<uint8_t>(static_cast<std::size_t>(S));
  std::fill(acc, acc + static_cast<std::size_t>(batch) * F, 0);
  uint32_t bitvec[16] = {};
  sim::tally(counter, Event::kSramWrite, static_cast<uint64_t>(F) * batch);

  for (int g = 0; g < fin / G; ++g) {
    GroupContext ctx{lut, indices.idx.data() + indices.flat(0, 0, g, 0), F, M, bitvec};
    for (int b = 0; b < batch; ++b) {
      const int16_t* group_vals =
          in.data + static_cast<std::size_t>(b) * in_stride + static_cast<std::size_t>(g) * G;
      if (variant != BitSerialVariant::kNaive) unpack_bits(group_vals, G, M, bitvec, counter);
      if (uses_cache(variant)) count_cache_fill(counter, M, lut);
      accumulate_filters(ctx, variant, acc + static_cast<std::size_t>(b) * F, group_vals, G,
                         precomp, memo_valid, counter);
    }
  }
  for (int b = 0; b < batch; ++b) {
    const int32_t* acc_b = acc + static_cast<std::size_t>(b) * F;
    int16_t* dst = out.data + static_cast<std::size_t>(b) * out_stride;
    for (int o = 0; o < F; ++o) dst[static_cast<std::size_t>(o)] = rq.apply(acc_b[o], o);
  }
  if (counter != nullptr) {
    counter->add(Event::kRequant, static_cast<uint64_t>(F) * batch);
    counter->add(Event::kSramRead, static_cast<uint64_t>(F) * batch);
    counter->add(Event::kSramWrite, static_cast<uint64_t>(F) * batch);
  }
}

std::size_t bitserial_host_scratch_bytes(int out_ch, int pool_size, int group_size, int batch) {
  return ScratchArena::bytes_for<int32_t>(static_cast<std::size_t>(out_ch) *
                                          static_cast<std::size_t>(batch)) +
         ScratchArena::bytes_for<int32_t>(static_cast<std::size_t>(pool_size)) +
         ScratchArena::bytes_for<uint8_t>(static_cast<std::size_t>(pool_size)) +
         ScratchArena::bytes_for<int16_t>(static_cast<std::size_t>(group_size));
}

// --- owning wrappers ---------------------------------------------------------

QTensor bitserial_conv2d(const QTensor& input, const PackedIndices& indices,
                         const pool::DotLut& lut, const nn::ConvSpec& spec, const Requant& rq,
                         BitSerialVariant variant, sim::CostCounter* counter) {
  check(input.shape.size() == 4 && input.shape[0] == 1, "bitserial_conv2d: input must be 1xCxHxW");
  const int oh = spec.out_h(input.dim(2)), ow = spec.out_w(input.dim(3));
  QTensor out({1, spec.out_ch, oh, ow}, rq.out.bits, rq.out.is_signed);
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;
  ScratchArena scratch(
      bitserial_host_scratch_bytes(spec.out_ch, lut.pool_size, lut.group_size, /*batch=*/1));
  QView ov = QView::of(out);
  bitserial_conv2d(QView::of(input), input.size(), 1, indices, lut, spec, rq, variant, ov,
                   out.size(), scratch, counter);
  return out;
}

QTensor bitserial_linear(const QTensor& input, const PackedIndices& indices,
                         const pool::DotLut& lut, const Requant& rq, BitSerialVariant variant,
                         sim::CostCounter* counter) {
  QTensor out({1, indices.out_ch}, rq.out.bits, rq.out.is_signed);
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;
  ScratchArena scratch(
      bitserial_host_scratch_bytes(indices.out_ch, lut.pool_size, lut.group_size, /*batch=*/1));
  QView ov = QView::of(out);
  bitserial_linear(QView::of(input), input.size(), 1, indices, lut, rq, variant, ov, out.size(),
                   scratch, counter);
  return out;
}

std::size_t bitserial_scratch_bytes(const nn::ConvSpec& spec, const pool::DotLut& lut,
                                    BitSerialVariant variant, int act_bits) {
  std::size_t bytes = sizeof(int32_t) * static_cast<std::size_t>(spec.out_ch);  // accumulators
  bytes += sizeof(uint32_t) * static_cast<std::size_t>(act_bits);               // bit-vectors
  if (uses_cache(variant)) bytes += static_cast<std::size_t>(act_bits) * lut.block_bytes();
  if (variant == BitSerialVariant::kCachedPrecompute ||
      variant == BitSerialVariant::kCachedMemoize) {
    bytes += sizeof(int32_t) * static_cast<std::size_t>(lut.pool_size);  // results
    if (variant == BitSerialVariant::kCachedMemoize) bytes += static_cast<std::size_t>(lut.pool_size);
  }
  return bytes;
}

}  // namespace bswp::kernels
