#include "runtime/serialize.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "kernels/simd/simd_dispatch.h"

namespace bswp::runtime {

namespace {

constexpr uint32_t kMagic = 0x42535750;  // "BSWP"
// v2 appends a HostLane byte after each plan's variant; v1 files still load
// (every plan gets HostLane::kScalar, the lane all v1 networks ran on).
constexpr uint32_t kVersion = 2;

// A new PlanKind must be wired through the plan payload writers/readers
// below (and through export_c_header's flash emission) before this count is
// bumped — the assert makes skipping this file a compile error.
static_assert(kNumPlanKinds == 11,
              "PlanKind changed: audit save_network/load_network/export_c_header payloads, "
              "then update this count");

// --- little primitive readers/writers (host-endian; container is a host
// artifact, not a wire format) ----------------------------------------------

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw std::runtime_error("bswp: truncated network file");
  return v;
}

/// Bytes between the read position and the end of `is`, so a length field
/// can be checked before anything is allocated for it: one flipped byte
/// must not turn into a multi-gigabyte request. max() for a stream that
/// cannot seek, where the read itself is the only truncation check.
std::uint64_t bytes_left(std::istream& is) {
  const std::istream::pos_type pos = is.tellg();
  if (pos == std::istream::pos_type(-1)) return UINT64_MAX;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(pos);
  if (!is || end == std::istream::pos_type(-1)) throw std::runtime_error("bswp: unreadable stream");
  return static_cast<std::uint64_t>(end - pos);
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod<uint32_t>(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto n = read_pod<uint32_t>(is);
  if (n > (1u << 20)) throw std::runtime_error("bswp: implausible string length");
  if (n > bytes_left(is)) throw std::runtime_error("bswp: string length past the end of the file");
  std::string s(n, '\0');
  is.read(s.data(), n);
  if (!is) throw std::runtime_error("bswp: truncated network file");
  return s;
}

template <typename T>
void write_vec(std::ostream& os, const std::vector<T>& v) {
  write_pod<uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& is) {
  const auto n = read_pod<uint64_t>(is);
  if (n > (1ull << 32)) throw std::runtime_error("bswp: implausible vector length");
  if (n > bytes_left(is) / sizeof(T)) {
    throw std::runtime_error("bswp: vector length past the end of the file");
  }
  std::vector<T> v(static_cast<std::size_t>(n));
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(T)));
  if (!is && n > 0) throw std::runtime_error("bswp: truncated network file");
  return v;
}

void write_int_vec(std::ostream& os, const std::vector<int>& v) {
  std::vector<int32_t> tmp(v.begin(), v.end());
  write_vec(os, tmp);
}

std::vector<int> read_int_vec(std::istream& is) {
  auto tmp = read_vec<int32_t>(is);
  return std::vector<int>(tmp.begin(), tmp.end());
}

void write_qtensor(std::ostream& os, const QTensor& q) {
  write_int_vec(os, q.shape);
  write_vec(os, q.data);
  write_pod(os, q.scale);
  write_pod<int32_t>(os, q.zero_point);
  write_pod<int32_t>(os, q.bits);
  write_pod<uint8_t>(os, q.is_signed ? 1 : 0);
}

QTensor read_qtensor(std::istream& is) {
  QTensor q;
  q.shape = read_int_vec(is);
  q.data = read_vec<int16_t>(is);
  q.scale = read_pod<float>(is);
  q.zero_point = read_pod<int32_t>(is);
  q.bits = read_pod<int32_t>(is);
  q.is_signed = read_pod<uint8_t>(is) != 0;
  if (q.data.size() != shape_numel(q.shape)) throw std::runtime_error("bswp: qtensor mismatch");
  return q;
}

void write_requant(std::ostream& os, const kernels::Requant& rq) {
  write_vec(os, rq.scale);
  write_vec(os, rq.bias);
  write_pod(os, rq.out.scale);
  write_pod<int32_t>(os, rq.out.bits);
  write_pod<uint8_t>(os, rq.out.is_signed ? 1 : 0);
  write_pod<int32_t>(os, rq.out.zero_point);
  write_pod<uint8_t>(os, rq.fuse_relu ? 1 : 0);
}

kernels::Requant read_requant(std::istream& is) {
  kernels::Requant rq;
  rq.scale = read_vec<float>(is);
  rq.bias = read_vec<float>(is);
  rq.out.scale = read_pod<float>(is);
  rq.out.bits = read_pod<int32_t>(is);
  rq.out.is_signed = read_pod<uint8_t>(is) != 0;
  rq.out.zero_point = read_pod<int32_t>(is);
  rq.fuse_relu = read_pod<uint8_t>(is) != 0;
  return rq;
}

/// A conv plan's spec against its own dims and its producer's. The Executor
/// sizes arena slots from out_chw and walks them with the spec, so a spec
/// that disagrees with either writes out of bounds or never finishes.
void check_conv_spec(const LayerPlan& p, const std::vector<LayerPlan>& plans) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("bswp: conv spec: ") + what);
  };
  if (p.inputs.empty()) fail("no input");
  const std::vector<int>& in = plans[static_cast<std::size_t>(p.inputs[0])].out_chw;
  const std::vector<int>& out = p.out_chw;
  if (in.size() != 3 || out.size() != 3) fail("dims are not CHW");
  const nn::ConvSpec& c = p.spec;
  if (c.kh < 1 || c.kw < 1 || c.stride < 1) fail("kernel or stride < 1");
  if (c.pad < 0 || c.pad >= c.kh || c.pad >= c.kw) fail("pad outside [0, kernel)");
  if (c.in_ch < 1 || c.in_ch != in[0]) fail("in_ch differs from its input's channels");
  if (c.out_ch != out[0]) fail("out_ch differs from out_chw[0]");
  if (c.groups < 1 || c.in_ch % c.groups != 0 || c.out_ch % c.groups != 0) {
    fail("groups do not divide both channel counts");
  }
  // ConvSpec::out_h/out_w, in 64 bits so forged dims cannot overflow.
  const auto out_size = [&](int in_dim, int k) {
    return (static_cast<int64_t>(in_dim) + 2 * static_cast<int64_t>(c.pad) - k) / c.stride + 1;
  };
  if (out[1] != out_size(in[1], c.kh) || out[2] != out_size(in[2], c.kw)) {
    fail("out_chw differs from the output size of its input");
  }
}

/// A plan's quantization state against what the requantizing kernels read:
/// Requant::apply and the SIMD epilogue read rq.scale/rq.bias at every
/// output channel (8 at a time on the vector path), divide by out.scale,
/// and shift by 1 << bits; the 2^16 zero-point limit is the one
/// kernels::kRequantSaturation's bound is derived from.
void check_requant(const LayerPlan& p, const std::vector<LayerPlan>& plans) {
  const auto fail = [](const char* what) {
    throw std::runtime_error(std::string("bswp: requant: ") + what);
  };
  const auto bits_ok = [](int bits) { return bits >= 1 && bits <= 16; };
  const auto zero_point_ok = [](int zp) { return zp >= -(1 << 16) && zp <= (1 << 16); };
  const auto scale_ok = [](float s) { return std::isfinite(s) && s > 0.0f; };
  if (!bits_ok(p.out.bits) || !bits_ok(p.rq.out.bits)) fail("bits outside [1, 16]");
  if (!zero_point_ok(p.out.zero_point) || !zero_point_ok(p.rq.out.zero_point)) {
    fail("|zero_point| > 2^16");
  }
  if (!scale_ok(p.out.scale) || !scale_ok(p.rq.out.scale)) fail("out.scale not finite and > 0");
  for (const std::vector<float>* v : {&p.rq.scale, &p.rq.bias}) {
    for (float x : *v) {
      if (!std::isfinite(x)) fail("non-finite scale or bias");
    }
  }
  // The channel count each per-channel kernel requantizes.
  int64_t channels = -1;
  switch (p.kind) {
    case PlanKind::kConvBaseline:
    case PlanKind::kConvBitSerial:
    case PlanKind::kConvBinary: channels = p.spec.out_ch; break;
    case PlanKind::kLinearBaseline:
      channels = p.qweights.shape.empty() ? 0 : p.qweights.shape[0];
      break;
    case PlanKind::kLinearBitSerial: channels = p.indices.out_ch; break;
    case PlanKind::kGlobalAvgPool: {
      if (p.inputs.empty()) fail("no input");
      const std::vector<int>& in = plans[static_cast<std::size_t>(p.inputs[0])].out_chw;
      channels = in.empty() ? 0 : in[0];
      break;
    }
    default: return;
  }
  if (static_cast<int64_t>(p.rq.scale.size()) != channels ||
      static_cast<int64_t>(p.rq.bias.size()) != channels) {
    fail("scale/bias size differs from the output channels");
  }
}

}  // namespace

void save_network(const CompiledNetwork& net, std::ostream& os) {
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod<int32_t>(os, net.act_bits);
  write_pod(os, net.input_scale);
  write_pod<uint8_t>(os, net.has_lut ? 1 : 0);
  if (net.has_lut) {
    write_pod<int32_t>(os, net.lut.group_size);
    write_pod<int32_t>(os, net.lut.pool_size);
    write_pod<int32_t>(os, net.lut.bitwidth);
    write_pod<int32_t>(os, static_cast<int32_t>(net.lut.order));
    write_pod(os, net.lut.pool_scale);
    write_pod(os, net.lut.entry_scale);
    write_vec(os, net.lut.entries);
  }
  write_pod<uint32_t>(os, static_cast<uint32_t>(net.plans.size()));
  for (const LayerPlan& p : net.plans) {
    write_pod<int32_t>(os, static_cast<int32_t>(p.kind));
    write_string(os, p.name);
    write_int_vec(os, p.inputs);
    write_pod<int32_t>(os, p.spec.in_ch);
    write_pod<int32_t>(os, p.spec.out_ch);
    write_pod<int32_t>(os, p.spec.kh);
    write_pod<int32_t>(os, p.spec.kw);
    write_pod<int32_t>(os, p.spec.stride);
    write_pod<int32_t>(os, p.spec.pad);
    write_pod<int32_t>(os, p.spec.groups);
    write_requant(os, p.rq);
    write_qtensor(os, p.qweights);
    write_pod<int32_t>(os, p.indices.kh);
    write_pod<int32_t>(os, p.indices.kw);
    write_pod<int32_t>(os, p.indices.groups);
    write_pod<int32_t>(os, p.indices.out_ch);
    write_vec(os, p.indices.idx);
    write_pod<int32_t>(os, static_cast<int32_t>(p.variant));
    write_pod<uint8_t>(os, static_cast<uint8_t>(p.lane));
    write_pod<int32_t>(os, p.pool_k);
    write_pod<int32_t>(os, p.pool_stride);
    write_pod(os, p.out.scale);
    write_pod<int32_t>(os, p.out.zero_point);
    write_pod<int32_t>(os, p.out.bits);
    write_pod<uint8_t>(os, p.out.is_signed ? 1 : 0);
    write_int_vec(os, p.out_chw);
  }
}

void save_network(const CompiledNetwork& net, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("bswp: cannot open " + path + " for writing");
  save_network(net, os);
  if (!os) throw std::runtime_error("bswp: write failed for " + path);
}

CompiledNetwork load_network(std::istream& is) {
  if (read_pod<uint32_t>(is) != kMagic) throw std::runtime_error("bswp: bad magic");
  const auto version = read_pod<uint32_t>(is);
  if (version < 1 || version > kVersion) {
    throw std::runtime_error("bswp: unsupported version");
  }
  CompiledNetwork net;
  net.act_bits = read_pod<int32_t>(is);
  net.input_scale = read_pod<float>(is);
  net.has_lut = read_pod<uint8_t>(is) != 0;
  if (net.has_lut) {
    net.lut.group_size = read_pod<int32_t>(is);
    net.lut.pool_size = read_pod<int32_t>(is);
    // Before anything shifts by the group size (DotLut::num_bit_vectors) or
    // indexes by the pool size: the ranges pool::build_lut produces, and
    // packed indices are uint8.
    if (net.lut.group_size < 1 || net.lut.group_size > 16) {
      throw std::runtime_error("bswp: LUT group size out of range");
    }
    if (net.lut.pool_size < 1 || net.lut.pool_size > 256) {
      throw std::runtime_error("bswp: LUT pool size out of range");
    }
    net.lut.bitwidth = read_pod<int32_t>(is);
    const auto order = read_pod<int32_t>(is);
    if (order < 0 || order > static_cast<int32_t>(pool::LutOrder::kWeightOriented)) {
      throw std::runtime_error("bswp: unknown LUT order");
    }
    net.lut.order = static_cast<pool::LutOrder>(order);
    net.lut.pool_scale = read_pod<float>(is);
    net.lut.entry_scale = read_pod<float>(is);
    net.lut.entries = read_vec<int32_t>(is);
    if (net.lut.entries.size() !=
        static_cast<std::size_t>(net.lut.num_bit_vectors()) * net.lut.pool_size) {
      throw std::runtime_error("bswp: LUT size mismatch");
    }
  }
  const auto num_plans = read_pod<uint32_t>(is);
  if (num_plans > 100000) throw std::runtime_error("bswp: implausible plan count");
  net.plans.resize(num_plans);
  for (std::size_t pi = 0; pi < net.plans.size(); ++pi) {
    LayerPlan& p = net.plans[pi];
    const auto kind = read_pod<int32_t>(is);
    if (kind < 0 || kind >= static_cast<int32_t>(kNumPlanKinds)) {
      throw std::runtime_error("bswp: unknown plan kind");
    }
    p.kind = static_cast<PlanKind>(kind);
    p.name = read_string(is);
    p.inputs = read_int_vec(is);
    for (int in : p.inputs) {
      // Plans are topologically ordered: an input names an earlier plan.
      if (in < 0 || static_cast<std::size_t>(in) >= pi) {
        throw std::runtime_error("bswp: plan input out of range");
      }
    }
    p.spec.in_ch = read_pod<int32_t>(is);
    p.spec.out_ch = read_pod<int32_t>(is);
    p.spec.kh = read_pod<int32_t>(is);
    p.spec.kw = read_pod<int32_t>(is);
    p.spec.stride = read_pod<int32_t>(is);
    p.spec.pad = read_pod<int32_t>(is);
    p.spec.groups = read_pod<int32_t>(is);
    p.rq = read_requant(is);
    p.qweights = read_qtensor(is);
    p.indices.kh = read_pod<int32_t>(is);
    p.indices.kw = read_pod<int32_t>(is);
    p.indices.groups = read_pod<int32_t>(is);
    p.indices.out_ch = read_pod<int32_t>(is);
    p.indices.idx = read_vec<uint8_t>(is);
    for (uint8_t ix : p.indices.idx) {
      if (ix >= net.lut.pool_size) throw std::runtime_error("bswp: pool index out of range");
    }
    const auto variant = read_pod<int32_t>(is);
    if (variant < 0 || variant > static_cast<int32_t>(kernels::BitSerialVariant::kCachedMemoize)) {
      throw std::runtime_error("bswp: unknown bit-serial variant");
    }
    p.variant = static_cast<kernels::BitSerialVariant>(variant);
    if (version >= 2) {
      const auto lane = read_pod<uint8_t>(is);
      if (lane > static_cast<uint8_t>(HostLane::kSimd)) {
        throw std::runtime_error("bswp: unknown host lane");
      }
      // A network compiled on a SIMD build loads on a scalar-only one: the
      // lanes are bit-identical, so silently downgrade instead of refusing.
      p.lane = kernels::simd::available() ? static_cast<HostLane>(lane) : HostLane::kScalar;
    }
    p.pool_k = read_pod<int32_t>(is);
    p.pool_stride = read_pod<int32_t>(is);
    if (p.kind == PlanKind::kMaxPool && (p.pool_k < 1 || p.pool_stride < 1)) {
      throw std::runtime_error("bswp: maxpool window must be >= 1");
    }
    p.out.scale = read_pod<float>(is);
    p.out.zero_point = read_pod<int32_t>(is);
    p.out.bits = read_pod<int32_t>(is);
    p.out.is_signed = read_pod<uint8_t>(is) != 0;
    p.out_chw = read_int_vec(is);
    if (p.kind == PlanKind::kConvBaseline || p.kind == PlanKind::kConvBitSerial ||
        p.kind == PlanKind::kConvBinary) {
      check_conv_spec(p, net.plans);
    }
    check_requant(p, net.plans);
  }
  return net;
}

CompiledNetwork load_network(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("bswp: cannot open " + path);
  return load_network(is);
}

std::size_t export_c_header(const CompiledNetwork& net, const std::string& path,
                            const std::string& symbol_prefix) {
  std::ostringstream os;
  std::size_t flash_bytes = 0;
  os << "// Auto-generated flash image for a bit-serial weight-pool network.\n";
  os << "// act_bits=" << net.act_bits << " input_scale=" << net.input_scale << "\n";
  os << "#pragma once\n#include <stdint.h>\n\n";

  auto emit_u8 = [&](const std::string& name, const uint8_t* data, std::size_t n) {
    os << "static const uint8_t " << name << "[" << n << "] = {";
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 16 == 0) os << "\n  ";
      os << static_cast<int>(data[i]) << ",";
    }
    os << "\n};\n\n";
    flash_bytes += n;
  };
  auto emit_i8 = [&](const std::string& name, const int16_t* data, std::size_t n) {
    os << "static const int8_t " << name << "[" << n << "] = {";
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 16 == 0) os << "\n  ";
      os << static_cast<int>(data[i]) << ",";
    }
    os << "\n};\n\n";
    flash_bytes += n;
  };
  auto emit_f32 = [&](const std::string& name, const float* data, std::size_t n) {
    os << "static const float " << name << "[" << n << "] = {";
    for (std::size_t i = 0; i < n; ++i) {
      if (i % 8 == 0) os << "\n  ";
      os << data[i] << "f,";
    }
    os << "\n};\n\n";
    flash_bytes += 4 * n;
  };

  if (net.has_lut) {
    // LUT entries fit int8 at B_l <= 8; wider tables emit int16.
    os << "// dot-product LUT: " << net.lut.num_bit_vectors() << " blocks x "
       << net.lut.pool_size << " entries, B_l=" << net.lut.bitwidth << "\n";
    if (net.lut.bitwidth <= 8) {
      std::vector<int16_t> tmp(net.lut.entries.begin(), net.lut.entries.end());
      emit_i8(symbol_prefix + "_lut", tmp.data(), tmp.size());
    } else {
      os << "static const int16_t " << symbol_prefix << "_lut["
         << net.lut.entries.size() << "] = {";
      for (std::size_t i = 0; i < net.lut.entries.size(); ++i) {
        if (i % 12 == 0) os << "\n  ";
        os << net.lut.entries[i] << ",";
      }
      os << "\n};\n\n";
      flash_bytes += 2 * net.lut.entries.size();
    }
  }
  int layer_id = 0;
  for (const LayerPlan& p : net.plans) {
    const std::string base = symbol_prefix + "_l" + std::to_string(layer_id++);
    switch (p.kind) {
      case PlanKind::kConvBaseline:
      case PlanKind::kLinearBaseline:
        if (!p.qweights.data.empty()) {
          emit_i8(base + "_weights", p.qweights.data.data(), p.qweights.data.size());
        }
        break;
      case PlanKind::kConvBitSerial:
      case PlanKind::kLinearBitSerial:
        emit_u8(base + "_indices", p.indices.idx.data(), p.indices.idx.size());
        break;
      case PlanKind::kConvBinary: {
        // 1-bit packed signs (bit = 1 for +1), flat OIHW order.
        std::vector<uint8_t> packed((p.qweights.size() + 7) / 8, 0);
        for (std::size_t i = 0; i < p.qweights.size(); ++i) {
          if (p.qweights.data[i] >= 0) packed[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
        }
        emit_u8(base + "_sign_bits", packed.data(), packed.size());
        break;
      }
      default:
        continue;
    }
    emit_f32(base + "_rq_scale", p.rq.scale.data(), p.rq.scale.size());
    emit_f32(base + "_rq_bias", p.rq.bias.data(), p.rq.bias.size());
  }
  os << "// total flash bytes: " << flash_bytes << "\n";

  std::ofstream file(path);
  if (!file) throw std::runtime_error("bswp: cannot open " + path + " for writing");
  file << os.str();
  if (!file) throw std::runtime_error("bswp: write failed for " + path);
  return flash_bytes;
}

}  // namespace bswp::runtime
