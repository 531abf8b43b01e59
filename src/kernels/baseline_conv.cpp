#include "kernels/baseline_conv.h"

#include <algorithm>

namespace bswp::kernels {

using sim::Event;
using sim::tally;

void baseline_conv2d(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                     const nn::ConvSpec& spec, const Requant& rq, QView& out,
                     std::size_t out_stride, sim::CostCounter* counter) {
  check(in.rank == 4 && in.shape[0] == 1, "baseline_conv2d: input must be 1xCxHxW");
  check(in.dim(1) == spec.in_ch, "baseline_conv2d: channel mismatch");
  check(batch >= 1, "baseline_conv2d: batch must be >= 1");
  const int h = in.dim(2), w = in.dim(3);
  const int oh = spec.out_h(h), ow = spec.out_w(w);
  const int cg = spec.in_ch / spec.groups;
  const int og = spec.out_ch / spec.groups;
  const std::size_t wstride = static_cast<std::size_t>(cg) * spec.kh * spec.kw;

  out.set_shape({1, spec.out_ch, oh, ow});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;
  const int32_t in_zp = in.zero_point;

  for (int oy = 0; oy < oh; ++oy) {
    for (int ox = 0; ox < ow; ++ox) {
      uint64_t spatial_valid = 0;
      // Count the spatially valid kernel taps once per position (identical
      // for every channel, group and image).
      for (int ky = 0; ky < spec.kh; ++ky) {
        const int iy = oy * spec.stride + ky - spec.pad;
        if (iy < 0 || iy >= h) continue;
        for (int kx = 0; kx < spec.kw; ++kx) {
          const int ix = ox * spec.stride + kx - spec.pad;
          if (ix >= 0 && ix < w) ++spatial_valid;
        }
      }
      for (int g = 0; g < spec.groups; ++g) {
        for (int oc = 0; oc < og; ++oc) {
          const int o = g * og + oc;
          const int16_t* wrow = weights.data.data() + static_cast<std::size_t>(o) * wstride;
          // Image loop inside the filter loop: wrow stays hot across the
          // batch. Each image's tap order (c, ky, kx) is the batch-1 order,
          // so the int32 accumulation is bit-identical.
          for (int b = 0; b < batch; ++b) {
            const int16_t* src = in.data + static_cast<std::size_t>(b) * in_stride;
            int32_t acc = 0;
            std::size_t widx = 0;
            for (int c = 0; c < cg; ++c) {
              const int in_c = g * cg + c;
              for (int ky = 0; ky < spec.kh; ++ky) {
                const int iy = oy * spec.stride + ky - spec.pad;
                for (int kx = 0; kx < spec.kw; ++kx, ++widx) {
                  const int ix = ox * spec.stride + kx - spec.pad;
                  if (iy < 0 || iy >= h || ix < 0 || ix >= w) continue;
                  const int16_t a = src[(static_cast<std::size_t>(in_c) * h + iy) * w + ix];
                  acc += (static_cast<int32_t>(a) - in_zp) * wrow[widx];
                }
              }
            }
            out.data[static_cast<std::size_t>(b) * out_stride +
                     (static_cast<std::size_t>(o) * oh + oy) * ow + ox] = rq.apply(acc, o);
          }
        }
      }
      if (counter != nullptr) {
        // Exactly batch x the per-image tallies (the modeled MCU does not
        // batch; the closed forms in sim/layer_cost.h price amortization).
        const uint64_t nb = static_cast<uint64_t>(batch);
        // Valid taps per filter: each filter reads its own group's channels.
        const uint64_t taps_per_filter = spatial_valid * static_cast<uint64_t>(cg);
        // im2col copy: the full patch (all input channels) is staged once
        // per output position, read from the activation map and written to
        // the column buffer.
        const uint64_t patch = spatial_valid * static_cast<uint64_t>(spec.in_ch);
        counter->add(Event::kSramRead, patch * nb);
        counter->add(Event::kSramWrite, patch * nb);
        // MAC loop per filter: sequential weight stream from flash, column
        // buffer reads from SRAM, one MAC per tap plus the q7
        // sign-extension, pointer-update and loop-compare ALU work a
        // Cortex-M3 (no DSP extension) pays per element.
        const uint64_t work = taps_per_filter * static_cast<uint64_t>(spec.out_ch);
        counter->add(Event::kFlashSeqByte, work * nb);
        counter->add(Event::kSramRead, work * nb);
        counter->add(Event::kMac, work * nb);
        counter->add(Event::kAlu, 3 * work * nb);
        counter->add(Event::kBranch, static_cast<uint64_t>(spec.out_ch) * nb);
        counter->add(Event::kRequant, static_cast<uint64_t>(spec.out_ch) * nb);
        counter->add(Event::kSramWrite, static_cast<uint64_t>(spec.out_ch) * nb);
      }
    }
  }
}

void baseline_linear(const QView& in, std::size_t in_stride, int batch, const QTensor& weights,
                     const Requant& rq, QView& out, std::size_t out_stride,
                     sim::CostCounter* counter) {
  check(in.rank == 2 && in.shape[0] == 1, "baseline_linear: input must be 1xF");
  check(batch >= 1, "baseline_linear: batch must be >= 1");
  const int fin = in.dim(1), fout = weights.dim(0);
  check(weights.dim(1) == fin, "baseline_linear: shape mismatch");
  out.set_shape({1, fout});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;
  const int32_t in_zp = in.zero_point;
  for (int o = 0; o < fout; ++o) {
    const int16_t* wrow = weights.data.data() + static_cast<std::size_t>(o) * fin;
    for (int b = 0; b < batch; ++b) {
      const int16_t* src = in.data + static_cast<std::size_t>(b) * in_stride;
      int32_t acc = 0;
      for (int i = 0; i < fin; ++i)
        acc += (static_cast<int32_t>(src[i]) - in_zp) * wrow[i];
      out.data[static_cast<std::size_t>(b) * out_stride + static_cast<std::size_t>(o)] =
          rq.apply(acc, o);
    }
  }
  if (counter != nullptr) {
    const uint64_t nb = static_cast<uint64_t>(batch);
    const uint64_t taps = static_cast<uint64_t>(fin) * fout;
    counter->add(Event::kFlashSeqByte, taps * nb);
    counter->add(Event::kSramRead, taps * nb);
    counter->add(Event::kMac, taps * nb);
    counter->add(Event::kAlu, 3 * taps * nb);
    counter->add(Event::kRequant, static_cast<uint64_t>(fout) * nb);
    counter->add(Event::kSramWrite, static_cast<uint64_t>(fout) * nb);
  }
}

void maxpool_q(const QView& in, int k, int stride, QView& out, sim::CostCounter* counter) {
  const int c = in.dim(1), h = in.dim(2), w = in.dim(3);
  const int oh = (h - k) / stride + 1, ow = (w - k) / stride + 1;
  out.set_shape({1, c, oh, ow});
  out.set_meta(in);
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        int16_t m = in.data[(static_cast<std::size_t>(ch) * h + oy * stride) * w + ox * stride];
        for (int ky = 0; ky < k; ++ky)
          for (int kx = 0; kx < k; ++kx)
            m = std::max(m, in.data[(static_cast<std::size_t>(ch) * h + oy * stride + ky) * w +
                                    ox * stride + kx]);
        out.data[(static_cast<std::size_t>(ch) * oh + oy) * ow + ox] = m;
      }
    }
  }
  if (counter != nullptr) {
    const uint64_t outs = static_cast<uint64_t>(c) * oh * ow;
    counter->add(Event::kSramRead, outs * static_cast<uint64_t>(k) * k);
    counter->add(Event::kAlu, outs * static_cast<uint64_t>(k) * k);
    counter->add(Event::kSramWrite, outs);
  }
}

void global_avgpool_q(const QView& in, const Requant& rq, QView& out, sim::CostCounter* counter) {
  const int c = in.dim(1), h = in.dim(2), w = in.dim(3);
  out.set_shape({1, c});
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = 0;
  for (int ch = 0; ch < c; ++ch) {
    int32_t acc = 0;
    const int16_t* src = in.data + static_cast<std::size_t>(ch) * h * w;
    for (int i = 0; i < h * w; ++i) acc += src[i];
    out.data[static_cast<std::size_t>(ch)] = rq.apply(acc, ch);
  }
  if (counter != nullptr) {
    counter->add(Event::kSramRead, static_cast<uint64_t>(c) * h * w);
    counter->add(Event::kAlu, static_cast<uint64_t>(c) * h * w);
    counter->add(Event::kRequant, static_cast<uint64_t>(c));
    counter->add(Event::kSramWrite, static_cast<uint64_t>(c));
  }
}

void add_q(const QView& a, const QView& b, const Requant& rq, QView& out,
           sim::CostCounter* counter) {
  check(a.same_shape(b), "add_q: shape mismatch");
  out.rank = a.rank;
  for (int i = 0; i < a.rank; ++i) out.shape[i] = a.shape[i];
  out.len = a.len;
  out.bits = rq.out.bits;
  out.is_signed = rq.out.is_signed;
  out.scale = rq.out.scale;
  out.zero_point = rq.out.zero_point;
  const int32_t lo = rq.qmin(), hi = rq.qmax();
  for (std::size_t i = 0; i < a.size(); ++i) {
    float real = a.scale * static_cast<float>(a.data[i] - a.zero_point) +
                 b.scale * static_cast<float>(b.data[i] - b.zero_point);
    if (rq.fuse_relu && real < 0.0f) real = 0.0f;
    auto q = static_cast<int32_t>(std::lround(saturate_for_rounding(real / rq.out.scale))) +
             rq.out.zero_point;
    out.data[i] = static_cast<int16_t>(q < lo ? lo : (q > hi ? hi : q));
  }
  if (counter != nullptr) {
    counter->add(Event::kSramRead, 2 * a.size());
    counter->add(Event::kMac, 2 * a.size());  // two scale multiplies per element
    counter->add(Event::kAlu, a.size());
    counter->add(Event::kSramWrite, a.size());
  }
}

// --- owning wrappers ---------------------------------------------------------

namespace {

/// Owning output tensor sized for a view core's result, plus its view.
QTensor make_out(std::vector<int> shape, const Requant& rq) {
  QTensor t(std::move(shape), rq.out.bits, rq.out.is_signed);
  t.scale = rq.out.scale;
  t.zero_point = rq.out.zero_point;
  return t;
}

void adopt_meta(QTensor& t, const QView& v) {
  t.scale = v.scale;
  t.zero_point = v.zero_point;
  t.bits = v.bits;
  t.is_signed = v.is_signed;
}

}  // namespace

QTensor baseline_conv2d(const QTensor& input, const QTensor& weights, const nn::ConvSpec& spec,
                        const Requant& rq, sim::CostCounter* counter) {
  check(input.shape.size() == 4 && input.shape[0] == 1, "baseline_conv2d: input must be 1xCxHxW");
  const int oh = spec.out_h(input.dim(2)), ow = spec.out_w(input.dim(3));
  QTensor out = make_out({1, spec.out_ch, oh, ow}, rq);
  QView ov = QView::of(out);
  baseline_conv2d(QView::of(input), input.size(), 1, weights, spec, rq, ov, out.size(), counter);
  return out;
}

QTensor baseline_linear(const QTensor& input, const QTensor& weights, const Requant& rq,
                        sim::CostCounter* counter) {
  check(input.shape.size() == 2 && input.shape[0] == 1, "baseline_linear: input must be 1xF");
  QTensor out = make_out({1, weights.dim(0)}, rq);
  QView ov = QView::of(out);
  baseline_linear(QView::of(input), input.size(), 1, weights, rq, ov, out.size(), counter);
  return out;
}

QTensor maxpool_q(const QTensor& input, int k, int stride, sim::CostCounter* counter) {
  const int c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const int oh = (h - k) / stride + 1, ow = (w - k) / stride + 1;
  QTensor out({1, c, oh, ow}, input.bits, input.is_signed);
  QView ov = QView::of(out);
  maxpool_q(QView::of(input), k, stride, ov, counter);
  adopt_meta(out, ov);
  return out;
}

QTensor global_avgpool_q(const QTensor& input, const Requant& rq, sim::CostCounter* counter) {
  QTensor out = make_out({1, input.dim(1)}, rq);
  out.zero_point = 0;
  QView ov = QView::of(out);
  global_avgpool_q(QView::of(input), rq, ov, counter);
  adopt_meta(out, ov);
  return out;
}

QTensor add_q(const QTensor& a, const QTensor& b, const Requant& rq, sim::CostCounter* counter) {
  check(a.shape == b.shape, "add_q: shape mismatch");
  QTensor out = make_out(a.shape, rq);
  QView ov = QView::of(out);
  add_q(QView::of(a), QView::of(b), rq, ov, counter);
  return out;
}

std::size_t baseline_conv_scratch_bytes(const nn::ConvSpec& spec) {
  // CMSIS keeps a 2-column q15 im2col buffer: 2 * (in_ch/groups * kh * kw) int16.
  return 2 * sizeof(int16_t) * static_cast<std::size_t>(spec.in_ch / spec.groups) * spec.kh *
         spec.kw * 2;
}

}  // namespace bswp::kernels
