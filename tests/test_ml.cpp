// Model substrate: parameter round-trips, value-semantics, numeric
// gradient checks for the dense stack, hand-computed checks pinning the
// flat (contiguous-Tensor) kernels to the math of the original
// nested-vector path, and lane-invariance checks: every kernel in
// ml/kernels.h must equal a naive scalar reference bit for bit, whichever
// clone (SSE2, AVX2, AVX-512) the host runs.
//
// Builds with -ffp-contract=off (tests/CMakeLists.txt), like the kernels,
// so the scalar references here round exactly as documented.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/kernels.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "ml/tensor.h"

namespace {

using flips::common::Rng;
using flips::ml::ModelFactory;
using flips::ml::Sequential;
using flips::ml::Tensor;

TEST(TensorBasics, RowMajorContiguity) {
  Tensor t(2, 3);
  ASSERT_EQ(t.rows(), 2u);
  ASSERT_EQ(t.cols(), 3u);
  ASSERT_EQ(t.size(), 6u);
  t(1, 2) = 6.0;
  // Row-major contiguity: row pointers are data() + r * cols.
  EXPECT_EQ(t.row(1), t.data() + 3);
  EXPECT_EQ(t.data()[5], 6.0);
}

TEST(Sequential, ParameterRoundTrip) {
  Rng rng(1);
  Sequential model = ModelFactory::mlp(6, 4, 3, rng);
  auto params = model.parameters();
  EXPECT_EQ(params.size(), model.num_parameters());
  EXPECT_EQ(params.size(), 6u * 4 + 4 + 4 * 3 + 3);
  for (auto& p : params) p += 0.125;
  model.set_parameters(params);
  EXPECT_EQ(model.parameters(), params);
}

TEST(Sequential, CopyIsDeep) {
  Rng rng(2);
  Sequential a = ModelFactory::mlp(4, 3, 2, rng);
  Sequential b = a;
  auto params = b.parameters();
  for (auto& p : params) p = 1.0;
  b.set_parameters(params);
  EXPECT_NE(a.parameters(), b.parameters());
  EXPECT_EQ(a.num_parameters(), b.num_parameters());
}

// The copy must rebind layer weight pointers into the copy's own flat
// buffer: training the copy may not disturb the original.
TEST(Sequential, CopyTrainsIndependently) {
  Rng rng(12);
  Sequential a = ModelFactory::mlp(4, 3, 2, rng);
  const auto before = a.parameters();
  Sequential b = a;
  Tensor x(2, 4, 0.5);
  b.train_step_gradient(x, {0, 1});
  b.apply_gradients(0.1);
  EXPECT_EQ(a.parameters(), before);
  EXPECT_NE(b.parameters(), before);
}

// ------------------------------------------------------------------
// Flat dense kernel vs the old path's hand-computed math.
//
// The original implementation computed, per sample,
//   logit_o = bias_o + sum_i w(i, o) * x_i
// with nested-vector storage. The flat kernel must produce the same
// values from its contiguous [in][out]-major parameter segment
// (ordering: all weights, then bias).

TEST(DenseKernel, ForwardMatchesHandComputed) {
  Rng rng(3);
  Sequential model = ModelFactory::logistic_regression(2, 2, rng);
  // params = [w(0,0), w(0,1), w(1,0), w(1,1), b0, b1]
  model.set_parameters({1.0, -1.0, 0.5, 2.0, 0.25, -0.75});

  Tensor x(2, 2);
  x(0, 0) = 1.0;
  x(0, 1) = 2.0;
  x(1, 0) = -3.0;
  x(1, 1) = 0.5;
  const Tensor& logits = model.forward(x);
  ASSERT_EQ(logits.rows(), 2u);
  ASSERT_EQ(logits.cols(), 2u);
  // Sample 0: y0 = 0.25 + 1*1 + 2*0.5 = 2.25; y1 = -0.75 - 1 + 4 = 2.25.
  EXPECT_DOUBLE_EQ(logits(0, 0), 2.25);
  EXPECT_DOUBLE_EQ(logits(0, 1), 2.25);
  // Sample 1: y0 = 0.25 - 3 + 0.25 = -2.5; y1 = -0.75 + 3 + 1 = 3.25.
  EXPECT_DOUBLE_EQ(logits(1, 0), -2.5);
  EXPECT_DOUBLE_EQ(logits(1, 1), 3.25);
}

TEST(DenseKernel, BackwardMatchesHandComputed) {
  Rng rng(4);
  Sequential model = ModelFactory::logistic_regression(2, 2, rng);
  model.set_parameters({0.2, -0.4, 0.1, 0.3, 0.0, 0.0});

  Tensor x(1, 2);
  x(0, 0) = 1.0;
  x(0, 1) = -2.0;
  const double loss = model.train_step_gradient(x, {0});

  // Hand-compute the old path: logits, softmax, g = p - onehot(0),
  // grad_w(i, o) = g_o * x_i, grad_b = g.
  const double y0 = 0.2 * 1.0 + 0.1 * -2.0;   // 0.0
  const double y1 = -0.4 * 1.0 + 0.3 * -2.0;  // -1.0
  const double z = std::exp(y0) + std::exp(y1);
  const double p0 = std::exp(y0) / z;
  const double p1 = std::exp(y1) / z;
  EXPECT_NEAR(loss, -std::log(p0), 1e-12);

  const auto& g = model.gradients();
  ASSERT_EQ(g.size(), 6u);
  EXPECT_NEAR(g[0], (p0 - 1.0) * 1.0, 1e-12);   // w(0,0)
  EXPECT_NEAR(g[1], p1 * 1.0, 1e-12);           // w(0,1)
  EXPECT_NEAR(g[2], (p0 - 1.0) * -2.0, 1e-12);  // w(1,0)
  EXPECT_NEAR(g[3], p1 * -2.0, 1e-12);          // w(1,1)
  EXPECT_NEAR(g[4], p0 - 1.0, 1e-12);           // b0
  EXPECT_NEAR(g[5], p1, 1e-12);                 // b1
}

// Larger shape: the blocked kernel must equal a naive per-sample
// reference loop (the old path's exact computation) over a random MLP
// first layer, bit for bit.
TEST(DenseKernel, MatchesNaiveReferenceLoop) {
  Rng rng(5);
  Sequential model = ModelFactory::logistic_regression(7, 4, rng);
  const auto& params = model.parameters();

  Rng data_rng(6);
  Tensor x(5, 7);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) x(r, c) = data_rng.normal();
  }
  const Tensor& logits = model.forward(x);
  for (std::size_t b = 0; b < 5; ++b) {
    for (std::size_t o = 0; o < 4; ++o) {
      double expected = params[7 * 4 + o];  // bias
      for (std::size_t i = 0; i < 7; ++i) {
        expected += params[i * 4 + o] * x(b, i);
      }
      EXPECT_NEAR(logits(b, o), expected, 1e-12) << "b=" << b << " o=" << o;
    }
  }
}

/// Central-difference gradient check on a random coordinate subset.
void check_gradients(Sequential& model, const Tensor& features,
                     const std::vector<std::uint32_t>& labels,
                     double tolerance) {
  model.train_step_gradient(features, labels);
  const auto analytic = model.gradients();
  auto params = model.parameters();
  ASSERT_EQ(analytic.size(), params.size());

  Rng pick(1234);
  const double h = 1e-5;
  for (std::size_t trial = 0; trial < 25; ++trial) {
    const std::size_t i = pick.uniform_index(params.size());
    const double saved = params[i];
    params[i] = saved + h;
    model.set_parameters(params);
    const double up = model.evaluate_loss(features, labels);
    params[i] = saved - h;
    model.set_parameters(params);
    const double down = model.evaluate_loss(features, labels);
    params[i] = saved;
    model.set_parameters(params);
    const double numeric = (up - down) / (2.0 * h);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0, std::fabs(numeric)))
        << "param " << i;
  }
}

TEST(Gradients, MlpMatchesNumeric) {
  Rng rng(3);
  Sequential model = ModelFactory::mlp(5, 7, 4, rng);
  Tensor features(6, 5);
  std::vector<std::uint32_t> labels;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t c = 0; c < 5; ++c) features(i, c) = rng.normal();
    labels.push_back(static_cast<std::uint32_t>(i % 4));
  }
  check_gradients(model, features, labels, 1e-4);
}

TEST(Training, LossDecreasesOnSeparableData) {
  Rng rng(8);
  Sequential model = ModelFactory::logistic_regression(8, 2, rng);
  Tensor features(40, 8, 0.0);
  std::vector<std::uint32_t> labels;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::uint32_t y = i % 2;
    features(i, 0) = y == 0 ? 1.0 : -1.0;
    features(i, 1) = 0.1 * rng.normal();
    labels.push_back(y);
  }
  flips::ml::SgdOptimizer opt({.learning_rate = 0.5});
  const double first = model.train_step_gradient(features, labels);
  opt.step(model, 0.5);
  double last = first;
  for (std::size_t e = 0; e < 20; ++e) {
    last = model.train_step_gradient(features, labels);
    opt.step(model, 0.5);
  }
  EXPECT_LT(last, 0.5 * first);
}

TEST(Sgd, LearningRateDecaySchedule) {
  flips::ml::SgdConfig config;
  config.learning_rate = 0.1;
  config.lr_decay_factor = 0.5;
  config.lr_decay_rounds = 10;
  flips::ml::SgdOptimizer opt(config);
  EXPECT_DOUBLE_EQ(opt.learning_rate_for_round(1), 0.1);
  EXPECT_DOUBLE_EQ(opt.learning_rate_for_round(10), 0.1);
  EXPECT_DOUBLE_EQ(opt.learning_rate_for_round(11), 0.05);
  EXPECT_DOUBLE_EQ(opt.learning_rate_for_round(21), 0.025);
}


// ------------------------------------------------------------------
// Lane invariance: the kernels against naive scalar loops written in
// the summation order ml/kernels.h documents. Batch sizes 1-9 cover
// the 4-row tiles and every remainder; widths 1-7 (the zero-padded
// narrow path), 24, 62 and 65 (and in = 1-7, 17, 24 for the input
// gradient, the forward kernel over W^T with `in` as its width) cover
// every narrow width, full vectors and remainders at 2, 4 and 8 lanes.
// Every output buffer ends in a guard of sentinels that the reference
// keeps too, so a padded lane stored past the last output fails.

std::vector<double> random_values(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_bits(const std::vector<double>& actual,
                      const std::vector<double>& expected,
                      const char* what, std::size_t batch, std::size_t in,
                      std::size_t out) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t k = 0; k < actual.size(); ++k) {
    ASSERT_EQ(bits(actual[k]), bits(expected[k]))
        << what << " differs at " << k << " (batch " << batch << ", in "
        << in << ", out " << out << "): " << actual[k] << " vs "
        << expected[k];
  }
}

/// Trailing guard on every kernel output buffer in the tests below.
constexpr std::size_t kGuard = 8;
constexpr double kSentinel = -1234.5;

/// `values` followed by the guard.
std::vector<double> guarded(std::vector<double> values) {
  values.resize(values.size() + kGuard, kSentinel);
  return values;
}

TEST(LaneInvariance, DenseKernelsMatchScalarReference) {
  Rng rng(41);
  const std::vector<std::size_t> outs = {1, 2, 3, 4, 5, 6, 7, 24, 62, 65};
  const std::vector<std::size_t> ins = {1, 2, 3, 4, 5, 6, 7, 17, 24};
  for (const std::size_t out : outs) {
    for (const std::size_t in : ins) {
      for (std::size_t batch = 1; batch <= 9; ++batch) {
        const auto x = random_values(batch * in, rng);
        const auto w = random_values(in * out, rng);
        const auto b = random_values(out, rng);
        const auto g = random_values(batch * out, rng);
        // Accumulators start non-zero: the kernels add into them.
        const auto gw0 = random_values(in * out, rng);
        const auto gb0 = random_values(out, rng);

        const double* const biases[] = {b.data(), nullptr};
        for (const double* bias : biases) {
          auto y = guarded(std::vector<double>(batch * out));
          flips::ml::dense_forward(x.data(), w.data(), bias, y.data(), batch,
                                   in, out);
          auto y_ref = guarded(std::vector<double>(batch * out));
          for (std::size_t r = 0; r < batch; ++r) {
            for (std::size_t o = 0; o < out; ++o) {
              double acc = bias != nullptr ? bias[o] : 0.0;
              for (std::size_t i = 0; i < in; ++i) {
                acc += x[r * in + i] * w[i * out + o];
              }
              y_ref[r * out + o] = acc;
            }
          }
          expect_same_bits(y, y_ref,
                           bias != nullptr ? "forward" : "unbiased forward",
                           batch, in, out);
        }

        auto gw = guarded(gw0);
        auto gb = guarded(gb0);
        flips::ml::dense_backward_params(x.data(), g.data(), gw.data(),
                                         gb.data(), batch, in, out);
        auto gw_ref = guarded(gw0);
        auto gb_ref = guarded(gb0);
        const auto xg = [&](std::size_t r, std::size_t i, std::size_t o) {
          return x[r * in + i] * g[r * out + o];
        };
        std::size_t r = 0;
        for (; r + 4 <= batch; r += 4) {
          for (std::size_t o = 0; o < out; ++o) {
            const auto go = [&](std::size_t k) { return g[k * out + o]; };
            gb_ref[o] += (go(r) + go(r + 1)) + (go(r + 2) + go(r + 3));
            for (std::size_t i = 0; i < in; ++i) {
              gw_ref[i * out + o] += (xg(r, i, o) + xg(r + 1, i, o)) +
                                     (xg(r + 2, i, o) + xg(r + 3, i, o));
            }
          }
        }
        for (; r < batch; ++r) {
          for (std::size_t o = 0; o < out; ++o) {
            gb_ref[o] += g[r * out + o];
            for (std::size_t i = 0; i < in; ++i) {
              gw_ref[i * out + o] += xg(r, i, o);
            }
          }
        }
        expect_same_bits(gw, gw_ref, "weight gradient", batch, in, out);
        expect_same_bits(gb, gb_ref, "bias gradient", batch, in, out);

        std::vector<double> wt(out * in);
        for (std::size_t i = 0; i < in; ++i) {
          for (std::size_t o = 0; o < out; ++o) {
            wt[o * in + i] = w[i * out + o];
          }
        }
        auto gi = guarded(std::vector<double>(batch * in, -1.0));
        flips::ml::dense_forward(g.data(), wt.data(), nullptr, gi.data(),
                                 batch, out, in);
        auto gi_ref = guarded(std::vector<double>(batch * in));
        for (std::size_t rr = 0; rr < batch; ++rr) {
          for (std::size_t i = 0; i < in; ++i) {
            double acc = 0.0;
            for (std::size_t o = 0; o < out; ++o) {
              acc += w[i * out + o] * g[rr * out + o];
            }
            gi_ref[rr * in + i] = acc;
          }
        }
        expect_same_bits(gi, gi_ref, "input gradient", batch, in, out);
      }
    }
  }
}

// Element i of the vector loops equals the scalar function, at every
// length 1-17 (full vectors plus each remainder) and at an unaligned
// start.
TEST(LaneInvariance, ElementwiseLoopsMatchScalarFunctions) {
  Rng rng(43);
  for (std::size_t n = 1; n <= 17; ++n) {
    for (std::size_t offset = 0; offset <= 1; ++offset) {
      std::vector<double> x(n + offset);
      for (auto& v : x) v = 8.0 * rng.normal();
      std::vector<double> y(n + offset, 0.0);
      flips::ml::tanh_elements(x.data() + offset, y.data() + offset, n);
      std::vector<double> e(n + offset, 0.0);
      flips::ml::exp_elements(x.data() + offset, e.data() + offset, n);
      for (std::size_t i = offset; i < n + offset; ++i) {
        EXPECT_EQ(bits(y[i]), bits(flips::ml::tanh(x[i])))
            << "tanh, n " << n << ", element " << i;
        EXPECT_EQ(bits(e[i]), bits(flips::ml::exp(x[i])))
            << "exp, n " << n << ", element " << i;
      }
    }
  }
}

/// Distance in representable doubles; 0 for equal values (+0 == -0).
std::uint64_t ulp_distance(double a, double b) {
  const auto ordered = [](double v) {
    const auto i = std::bit_cast<std::int64_t>(v);
    return i < 0 ? std::numeric_limits<std::int64_t>::min() - i : i;
  };
  // Subtract as unsigned: the gap between opposite-sign values can
  // exceed the int64 range.
  const auto ia = static_cast<std::uint64_t>(ordered(a));
  const auto ib = static_cast<std::uint64_t>(ordered(b));
  return ordered(a) > ordered(b) ? ia - ib : ib - ia;
}

/// A grid over [lo, hi] plus tiny magnitudes down to subnormals.
std::vector<double> accuracy_grid(double lo, double hi, double step) {
  std::vector<double> grid;
  for (double x = lo; x <= hi; x += step) grid.push_back(x);
  for (int e = 20; e <= 1074; e += 3) {
    for (const double m : {1.0, 1.37, 1.9}) {
      grid.push_back(std::ldexp(m, -e));
      grid.push_back(-std::ldexp(m, -e));
    }
  }
  return grid;
}

TEST(StrictMath, ExpWithinTwoUlpOfLibm) {
  for (const double x : accuracy_grid(-745.0, 709.7, 0.0137)) {
    EXPECT_LE(ulp_distance(flips::ml::exp(x), std::exp(x)), 2u)
        << "x = " << x;
  }
  EXPECT_EQ(flips::ml::exp(0.0), 1.0);
  EXPECT_EQ(flips::ml::exp(-0.0), 1.0);
  EXPECT_EQ(flips::ml::exp(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(flips::ml::exp(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(flips::ml::exp(-746.0), 0.0);
  EXPECT_EQ(flips::ml::exp(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_TRUE(std::isnan(
      flips::ml::exp(std::numeric_limits<double>::quiet_NaN())));
}

TEST(StrictMath, TanhWithinTwoUlpOfLibm) {
  for (const double x : accuracy_grid(-30.0, 30.0, 0.00037)) {
    EXPECT_LE(ulp_distance(flips::ml::tanh(x), std::tanh(x)), 2u)
        << "x = " << x;
  }
  // Sign of zero kept; tanh(x) == x far below 1 ulp of x^3/3.
  EXPECT_EQ(bits(flips::ml::tanh(-0.0)), bits(-0.0));
  EXPECT_EQ(flips::ml::tanh(1e-300), 1e-300);
  EXPECT_EQ(flips::ml::tanh(-5e-324), -5e-324);
  // Saturation is exact.
  for (const double x : {20.0, 21.5, 22.0, 40.0, 1e300}) {
    EXPECT_EQ(flips::ml::tanh(x), 1.0) << x;
    EXPECT_EQ(flips::ml::tanh(-x), -1.0) << x;
  }
  EXPECT_EQ(flips::ml::tanh(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_TRUE(std::isnan(
      flips::ml::tanh(std::numeric_limits<double>::quiet_NaN())));
}

}  // namespace
