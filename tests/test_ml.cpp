// Model substrate: parameter round-trips, value-semantics, numeric
// gradient checks for the dense stack, and hand-computed
// checks pinning the flat (contiguous-Tensor) kernels to the math of
// the original nested-vector path.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/model.h"
#include "ml/sgd.h"
#include "ml/tensor.h"

namespace {

using flips::common::Rng;
using flips::ml::ModelFactory;
using flips::ml::Sequential;
using flips::ml::Tensor;

TEST(TensorBasics, FromRowsRoundTrip) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0, 3.0},
                                             {4.0, 5.0, 6.0}};
  const Tensor t = Tensor::from_rows(rows);
  ASSERT_EQ(t.rows(), 2u);
  ASSERT_EQ(t.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(t(r, c), rows[r][c]);
    }
  }
  // Row-major contiguity: row pointers are data() + r * cols.
  EXPECT_EQ(t.row(1), t.data() + 3);
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

}  // namespace
