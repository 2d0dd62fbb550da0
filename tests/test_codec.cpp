// Wire codecs: round-trip error bounds, wire-size accounting,
// stochastic-rounding unbiasedness, top-k selection, and
// error-feedback convergence.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/rng.h"
#include "net/codec.h"

namespace {

using flips::net::Codec;
using flips::net::CodecConfig;
using flips::net::CodecWorkspace;
using flips::net::EncodedUpdate;
using flips::net::UpdateCodec;

std::vector<double> random_update(std::size_t dim, std::uint64_t seed,
                                  double stddev = 0.01) {
  flips::common::Rng rng(seed);
  std::vector<double> v(dim);
  for (auto& x : v) x = rng.normal(0.0, stddev);
  return v;
}

TEST(CodecNames, RoundTrip) {
  EXPECT_STREQ(flips::net::to_string(Codec::kDense64), "dense64");
  EXPECT_STREQ(flips::net::to_string(Codec::kQuant8), "quant8");
  EXPECT_STREQ(flips::net::to_string(Codec::kTopK), "topk");
  EXPECT_EQ(flips::net::codec_from_string("dense64"), Codec::kDense64);
  EXPECT_EQ(flips::net::codec_from_string("quant8"), Codec::kQuant8);
  EXPECT_EQ(flips::net::codec_from_string("topk"), Codec::kTopK);
  EXPECT_FALSE(flips::net::codec_from_string("gzip").has_value());
}

TEST(CodecDense, ExactRoundTripAndLegacyByteAccounting) {
  const std::size_t dim = 333;
  const auto update = random_update(dim, 1);
  const UpdateCodec codec(CodecConfig{});
  flips::common::Rng rng(2);
  EncodedUpdate enc;
  CodecWorkspace ws;
  codec.encode(update, rng, enc, ws);
  // Dense matches the historical model-bytes accounting: dim * 8, no
  // header.
  EXPECT_EQ(enc.wire_bytes(), dim * sizeof(double));
  std::vector<double> decoded;
  codec.decode(enc, decoded);
  EXPECT_EQ(decoded, update);
}

TEST(CodecQuant8, PerCoordinateErrorBoundedByChunkScale) {
  const std::size_t dim = 1000;
  CodecConfig config;
  config.codec = Codec::kQuant8;
  config.quant_chunk = 128;
  const UpdateCodec codec(config);
  const auto update = random_update(dim, 3, 0.5);

  flips::common::Rng rng(4);
  EncodedUpdate enc;
  CodecWorkspace ws;
  codec.encode(update, rng, enc, ws);
  std::vector<double> decoded;
  codec.decode(enc, decoded);
  ASSERT_EQ(decoded.size(), dim);

  for (std::size_t begin = 0; begin < dim; begin += config.quant_chunk) {
    const std::size_t end = std::min(dim, begin + config.quant_chunk);
    double max_abs = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      max_abs = std::max(max_abs, std::fabs(update[i]));
    }
    const double scale = max_abs / 127.0;
    for (std::size_t i = begin; i < end; ++i) {
      // Stochastic rounding moves at most one quantization step.
      EXPECT_LE(std::fabs(decoded[i] - update[i]), scale + 1e-15)
          << "i=" << i;
    }
  }
}

TEST(CodecQuant8, WireBytesAbout8xSmallerThanDense) {
  const std::size_t dim = 100000;
  CodecConfig config;
  config.codec = Codec::kQuant8;
  const UpdateCodec codec(config);
  const auto update = random_update(dim, 5);
  flips::common::Rng rng(6);
  EncodedUpdate enc;
  CodecWorkspace ws;
  codec.encode(update, rng, enc, ws);
  const double dense_bytes = static_cast<double>(dim) * sizeof(double);
  const double ratio = dense_bytes / static_cast<double>(enc.wire_bytes());
  EXPECT_GT(ratio, 7.5);
  EXPECT_LT(ratio, 8.0);
}

TEST(CodecQuant8, StochasticRoundingIsUnbiased) {
  // Encode the same vector many times with fresh randomness: the mean
  // decode converges to the input (E[q * scale] = value).
  const std::size_t dim = 64;
  CodecConfig config;
  config.codec = Codec::kQuant8;
  config.quant_chunk = 64;
  const UpdateCodec codec(config);
  const auto update = random_update(dim, 7, 1.0);

  flips::common::Rng rng(8);
  EncodedUpdate enc;
  CodecWorkspace ws;
  std::vector<double> decoded;
  std::vector<double> mean(dim, 0.0);
  const int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    codec.encode(update, rng, enc, ws);
    codec.decode(enc, decoded);
    for (std::size_t i = 0; i < dim; ++i) mean[i] += decoded[i];
  }
  double max_abs = 0.0;
  for (const double v : update) max_abs = std::max(max_abs, std::fabs(v));
  const double scale = max_abs / 127.0;
  for (std::size_t i = 0; i < dim; ++i) {
    mean[i] /= trials;
    // Monte-Carlo tolerance: a few standard errors of a Bernoulli step.
    EXPECT_NEAR(mean[i], update[i], 4.0 * scale / std::sqrt(trials))
        << "i=" << i;
  }
}

TEST(CodecQuant8, EncodeMatchesBranchingReferenceBitForBit) {
  // 917 coordinates (the ecg MLP) in chunks of 256: chunk 1 is all
  // zero and the last chunk holds only 149.
  const std::size_t dim = 917;
  const std::size_t chunk = 256;
  CodecConfig config;
  config.codec = Codec::kQuant8;
  config.quant_chunk = chunk;
  const UpdateCodec codec(config);
  auto update = random_update(dim, 21, 1.0);
  std::fill(update.begin() + chunk, update.begin() + 2 * chunk, 0.0);

  flips::common::Rng rng(22);
  EncodedUpdate enc;
  CodecWorkspace ws;
  codec.encode(update, rng, enc, ws);

  // Reference: the stochastic rounding written as a branch on each
  // draw. encode must give the same q, scales and number of draws.
  flips::common::Rng ref_rng(22);
  std::vector<std::int8_t> q(dim);
  std::vector<double> scales;
  for (std::size_t begin = 0; begin < dim; begin += chunk) {
    const std::size_t end = std::min(dim, begin + chunk);
    double max_abs = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      max_abs = std::max(max_abs, std::fabs(update[i]));
    }
    const double scale = max_abs / 127.0;
    scales.push_back(scale);
    if (scale == 0.0) continue;  // q stays 0, no draws
    for (std::size_t i = begin; i < end; ++i) {
      const double x = update[i] / scale;
      double lo = std::floor(x);
      const double frac = x - lo;
      if (ref_rng.uniform() < frac) lo += 1.0;
      lo = std::clamp(lo, -127.0, 127.0);
      q[i] = static_cast<std::int8_t>(lo);
    }
  }

  EXPECT_EQ(enc.q, q);
  ASSERT_EQ(enc.scales.size(), scales.size());
  ASSERT_EQ(scales.size(), 4u);
  EXPECT_EQ(scales[1], 0.0);
  for (std::size_t c = 0; c < scales.size(); ++c) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(enc.scales[c]),
              std::bit_cast<std::uint64_t>(scales[c]))
        << "chunk " << c;
  }
  EXPECT_EQ(rng.next(), ref_rng.next()) << "draw count differs";
}

TEST(CodecQuant8, ZeroVectorCostsNoDrawsAndDecodesToZero) {
  CodecConfig config;
  config.codec = Codec::kQuant8;
  const UpdateCodec codec(config);
  const std::vector<double> zeros(500, 0.0);
  flips::common::Rng rng(9);
  const std::uint64_t probe_before = flips::common::Rng(9).next();
  EncodedUpdate enc;
  CodecWorkspace ws;
  codec.encode(zeros, rng, enc, ws);
  // No draws consumed: the next draw equals a fresh RNG's first draw.
  EXPECT_EQ(rng.next(), probe_before);
  std::vector<double> decoded;
  codec.decode(enc, decoded);
  for (const double v : decoded) EXPECT_EQ(v, 0.0);
}

TEST(CodecTopK, KeepsExactlyTheLargestMagnitudes) {
  const std::size_t dim = 200;
  CodecConfig config;
  config.codec = Codec::kTopK;
  config.topk_fraction = 0.1;  // k = 20
  const UpdateCodec codec(config);
  const auto update = random_update(dim, 11, 1.0);

  flips::common::Rng rng(12);
  EncodedUpdate enc;
  CodecWorkspace ws;
  codec.encode(update, rng, enc, ws);
  ASSERT_EQ(enc.indices.size(), 20u);
  EXPECT_EQ(enc.wire_bytes(),
            16u + 20u * (sizeof(std::uint32_t) + sizeof(double)));

  // The kept set must be the 20 largest |values|; indices ascend and
  // values are exact.
  std::vector<double> magnitudes;
  for (const double v : update) magnitudes.push_back(std::fabs(v));
  std::sort(magnitudes.rbegin(), magnitudes.rend());
  const double threshold = magnitudes[19];
  for (std::size_t i = 0; i < enc.indices.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(enc.indices[i - 1], enc.indices[i]);
    }
    EXPECT_GE(std::fabs(update[enc.indices[i]]), threshold);
    EXPECT_EQ(enc.values[i], update[enc.indices[i]]);
  }

  std::vector<double> decoded;
  codec.decode(enc, decoded);
  ASSERT_EQ(decoded.size(), dim);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    if (decoded[i] != 0.0) {
      ++nonzero;
      EXPECT_EQ(decoded[i], update[i]);
    }
  }
  EXPECT_EQ(nonzero, 20u);
}

/// Error feedback makes lossy codecs converge on average: encoding
/// (value + residual) every round and carrying the miss forward, the
/// running mean of the decoded stream approaches the true value even
/// when every single message drops 95 % of the coordinates.
TEST(CodecErrorFeedback, DecodedStreamMeanConvergesToSignal) {
  const std::size_t dim = 100;
  const auto signal = random_update(dim, 13, 1.0);
  for (const Codec which : {Codec::kTopK, Codec::kQuant8}) {
    CodecConfig config;
    config.codec = which;
    config.topk_fraction = 0.05;  // 5 coordinates per message
    const UpdateCodec codec(config);

    flips::common::Rng rng(14);
    EncodedUpdate enc;
    CodecWorkspace ws;
    std::vector<double> residual(dim, 0.0);
    std::vector<double> pre(dim), decoded;
    std::vector<double> delivered(dim, 0.0);
    // Top-k with k = 5 of 100 services each coordinate every ~20
    // rounds, so the per-coordinate backlog is O(20 |signal_i|); enough
    // rounds make the backlog term negligible against the tolerance.
    const int rounds = 2000;
    for (int r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < dim; ++i) {
        pre[i] = signal[i] + residual[i];
      }
      codec.encode(pre, rng, enc, ws);
      codec.decode(enc, decoded);
      for (std::size_t i = 0; i < dim; ++i) {
        residual[i] = pre[i] - decoded[i];
        delivered[i] += decoded[i];
      }
    }
    for (std::size_t i = 0; i < dim; ++i) {
      EXPECT_NEAR(delivered[i] / rounds, signal[i], 0.05)
          << flips::net::to_string(which) << " i=" << i;
    }
  }
}

TEST(CodecConfigValidation, RejectsBadKnobs) {
  CodecConfig bad_chunk;
  bad_chunk.quant_chunk = 0;
  EXPECT_THROW(UpdateCodec{bad_chunk}, std::invalid_argument);
  CodecConfig bad_frac;
  bad_frac.topk_fraction = 0.0;
  EXPECT_THROW(UpdateCodec{bad_frac}, std::invalid_argument);
  CodecConfig too_big;
  too_big.topk_fraction = 1.5;
  EXPECT_THROW(UpdateCodec{too_big}, std::invalid_argument);
}

}  // namespace
