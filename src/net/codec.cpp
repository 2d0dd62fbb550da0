#include "net/codec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace flips::net {

namespace {

/// Serialized-size model: every non-dense message carries a small
/// header (codec tag + dim + payload count). Dense is header-free so
/// its accounting matches the historical `dim * sizeof(double)`.
constexpr std::size_t kHeaderBytes = 16;

/// Encoded-wire-byte counters by codec kind, registered on first use
/// and cached so encode() only pays one relaxed fetch_add.
obs::Counter* encoded_bytes_counter(Codec codec) {
  static const std::array<obs::Counter*, 3> counters = [] {
    std::array<obs::Counter*, 3> a{};
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = &obs::Registry::global().counter(
          "flips_codec_encoded_bytes_total",
          {{"codec", to_string(static_cast<Codec>(i))}});
    }
    return a;
  }();
  return counters[static_cast<std::size_t>(codec)];
}

}  // namespace

const char* to_string(Codec codec) {
  switch (codec) {
    case Codec::kDense64:
      return "dense64";
    case Codec::kQuant8:
      return "quant8";
    case Codec::kTopK:
      return "topk";
  }
  return "unknown";
}

std::optional<Codec> codec_from_string(std::string_view name) {
  if (name == "dense64" || name == "dense") return Codec::kDense64;
  if (name == "quant8" || name == "q8") return Codec::kQuant8;
  if (name == "topk") return Codec::kTopK;
  return std::nullopt;
}

std::size_t EncodedUpdate::wire_bytes() const {
  switch (codec) {
    case Codec::kDense64:
      return static_cast<std::size_t>(dim) * sizeof(double);
    case Codec::kQuant8:
      return kHeaderBytes + q.size() * sizeof(std::int8_t) +
             scales.size() * sizeof(double);
    case Codec::kTopK:
      return kHeaderBytes + indices.size() * sizeof(std::uint32_t) +
             values.size() * sizeof(double);
  }
  return 0;
}

UpdateCodec::UpdateCodec(CodecConfig config) : config_(config) {
  if (config_.quant_chunk == 0) {
    throw std::invalid_argument("UpdateCodec: quant_chunk must be > 0");
  }
  if (!(config_.topk_fraction > 0.0) || config_.topk_fraction > 1.0) {
    throw std::invalid_argument(
        "UpdateCodec: topk_fraction must be in (0, 1]");
  }
}

void UpdateCodec::encode(const std::vector<double>& update,
                         common::Rng& rng, EncodedUpdate& out,
                         CodecWorkspace& workspace) const {
  const std::size_t dim = update.size();
  out.codec = config_.codec;
  out.dim = static_cast<std::uint32_t>(dim);
  out.q.clear();
  out.scales.clear();
  out.indices.clear();
  out.values.clear();

  switch (config_.codec) {
    case Codec::kDense64:
      // The dense "encoding" is the identity: the payload is a full
      // copy of the plaintext in out.values (decode reads it back).
      // The job loop skips encode entirely for dense — this path
      // exists for codec round-trip tests and benches.
      out.values.assign(update.begin(), update.end());
      break;

    case Codec::kQuant8: {
      const std::size_t chunk = config_.quant_chunk;
      out.q.resize(dim);
      out.scales.reserve((dim + chunk - 1) / chunk);
      for (std::size_t begin = 0; begin < dim; begin += chunk) {
        const std::size_t end = std::min(dim, begin + chunk);
        double max_abs = 0.0;
        for (std::size_t i = begin; i < end; ++i) {
          max_abs = std::max(max_abs, std::fabs(update[i]));
        }
        const double scale = max_abs / 127.0;
        out.scales.push_back(scale);
        if (scale == 0.0) {
          // All-zero chunk: deterministic zeros, no RNG draws (keeps
          // the draw count independent of chunk layout noise).
          for (std::size_t i = begin; i < end; ++i) out.q[i] = 0;
          continue;
        }
        for (std::size_t i = begin; i < end; ++i) {
          const double x = update[i] / scale;  // in [-127, 127]
          double lo = std::floor(x);
          const double frac = x - lo;
          // Stochastic rounding: unbiased, E[q * scale] = update[i].
          // One draw per coordinate and a select, not a branch: the
          // comparison is a coin flip no predictor learns.
          const double u = rng.uniform();
          lo += u < frac ? 1.0 : 0.0;
          lo = std::clamp(lo, -127.0, 127.0);
          out.q[i] = static_cast<std::int8_t>(lo);
        }
      }
      break;
    }

    case Codec::kTopK: {
      const auto k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::llround(config_.topk_fraction *
                              static_cast<double>(dim))));
      const std::size_t kept = std::min(k, dim);
      workspace.order.resize(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        workspace.order[i] = static_cast<std::uint32_t>(i);
      }
      // Magnitude top-k with index tie-break: a total order, so the
      // selection is identical on every platform and thread count.
      const auto larger = [&](std::uint32_t a, std::uint32_t b) {
        const double fa = std::fabs(update[a]);
        const double fb = std::fabs(update[b]);
        if (fa != fb) return fa > fb;
        return a < b;
      };
      std::nth_element(workspace.order.begin(),
                       workspace.order.begin() +
                           static_cast<std::ptrdiff_t>(kept - 1),
                       workspace.order.end(), larger);
      std::sort(workspace.order.begin(),
                workspace.order.begin() + static_cast<std::ptrdiff_t>(kept));
      out.indices.assign(workspace.order.begin(),
                         workspace.order.begin() +
                             static_cast<std::ptrdiff_t>(kept));
      out.values.resize(kept);
      for (std::size_t i = 0; i < kept; ++i) {
        out.values[i] = update[out.indices[i]];
      }
      break;
    }
  }
  encoded_bytes_counter(out.codec)->inc(out.wire_bytes());
}

void UpdateCodec::decode(const EncodedUpdate& in,
                         std::vector<double>& out) const {
  const std::size_t dim = in.dim;
  out.resize(dim);
  switch (in.codec) {
    case Codec::kDense64:
      std::copy(in.values.begin(), in.values.end(), out.begin());
      break;
    case Codec::kQuant8: {
      const std::size_t chunk = config_.quant_chunk;
      for (std::size_t begin = 0; begin < dim; begin += chunk) {
        const std::size_t end = std::min(dim, begin + chunk);
        const double scale = in.scales[begin / chunk];
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = static_cast<double>(in.q[i]) * scale;
        }
      }
      break;
    }
    case Codec::kTopK: {
      std::fill(out.begin(), out.end(), 0.0);
      for (std::size_t i = 0; i < in.indices.size(); ++i) {
        out[in.indices[i]] = in.values[i];
      }
      break;
    }
  }
}

// ---------------------------------------------------------------------
// Framing layer

namespace {

void put_u32(std::uint32_t value, std::vector<std::uint8_t>& out) {
  out.push_back(static_cast<std::uint8_t>(value & 0xFF));
  out.push_back(static_cast<std::uint8_t>((value >> 8) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((value >> 16) & 0xFF));
  out.push_back(static_cast<std::uint8_t>((value >> 24) & 0xFF));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw std::invalid_argument("encode_frame: payload exceeds limit");
  }
  out.reserve(out.size() + kFrameHeaderBytes + frame.payload.size());
  put_u32(kFrameMagic, out);
  out.push_back(kFrameVersion);
  out.push_back(static_cast<std::uint8_t>(frame.type));
  const auto status = static_cast<std::uint16_t>(frame.status);
  out.push_back(static_cast<std::uint8_t>(status & 0xFF));
  out.push_back(static_cast<std::uint8_t>((status >> 8) & 0xFF));
  put_u32(static_cast<std::uint32_t>(frame.payload.size()), out);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (failed_) return;  // stream already condemned; drop the bytes
  buffer_.insert(buffer_.end(), data, data + size);
}

FrameDecodeResult FrameDecoder::next(Frame& frame) {
  if (failed_) return FrameDecodeResult::kError;
  // Compact lazily: move the unparsed tail to the front only once the
  // parsed prefix dominates, so steady streaming stays O(bytes).
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return FrameDecodeResult::kNeedMore;

  const std::uint8_t* head = buffer_.data() + consumed_;
  // Header validation runs on the 12 buffered bytes alone — a hostile
  // length field is rejected before any payload is awaited, so the
  // decoder can neither over-read nor buffer unboundedly.
  if (read_u32(head) != kFrameMagic) {
    failed_ = true;
    error_ = "bad magic (not a FLPS frame)";
    return FrameDecodeResult::kError;
  }
  if (head[4] != kFrameVersion) {
    failed_ = true;
    error_ = "unsupported frame version " + std::to_string(head[4]);
    return FrameDecodeResult::kError;
  }
  const std::uint8_t type = head[5];
  if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kMetrics)) {
    failed_ = true;
    error_ = "unknown frame type " + std::to_string(type);
    return FrameDecodeResult::kError;
  }
  const std::size_t payload_len = read_u32(head + 8);
  if (payload_len > kMaxFramePayload) {
    failed_ = true;
    error_ = "oversized frame payload (" + std::to_string(payload_len) +
             " bytes)";
    return FrameDecodeResult::kError;
  }
  if (avail < kFrameHeaderBytes + payload_len) {
    return FrameDecodeResult::kNeedMore;
  }

  frame.type = static_cast<FrameType>(type);
  frame.status = static_cast<FrameStatus>(
      static_cast<std::uint16_t>(head[6]) |
      (static_cast<std::uint16_t>(head[7]) << 8));
  frame.payload.assign(head + kFrameHeaderBytes,
                       head + kFrameHeaderBytes + payload_len);
  consumed_ += kFrameHeaderBytes + payload_len;
  return FrameDecodeResult::kFrame;
}

}  // namespace flips::net
