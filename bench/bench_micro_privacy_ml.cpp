// Microbenchmarks for the privacy substrate, clustering and the ML
// kernels: masking / unmasking throughput vs vector dimension and roster
// size, DP clip+noise, RDP accounting, mini-batch vs Lloyd k-means, one
// MLP train step / eval forward at the femnist and ecg shapes, the
// dense-layer kernels and tanh at those shapes, and quant8 encode.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "cluster/minibatch_kmeans.h"
#include "common/rng.h"
#include "ml/kernels.h"
#include "ml/model.h"
#include "net/codec.h"
#include "privacy/dp.h"
#include "privacy/masking.h"

namespace {

using flips::common::Rng;

void BM_MaskUpdate(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  const std::size_t roster_n = 20;
  std::vector<std::size_t> roster(roster_n);
  for (std::size_t i = 0; i < roster_n; ++i) roster[i] = i;
  const flips::privacy::MaskingSession session(7, roster, dim);
  std::vector<double> update(dim, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.mask(3, update));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_MaskUpdate)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_UnmaskWithDropouts(benchmark::State& state) {
  const std::size_t roster_n = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 10'000;
  std::vector<std::size_t> roster(roster_n);
  for (std::size_t i = 0; i < roster_n; ++i) roster[i] = i;
  const flips::privacy::MaskingSession session(7, roster, dim);
  // 10 % dropouts.
  std::vector<std::size_t> responders;
  for (std::size_t i = 0; i < roster_n; ++i) {
    if (i % 10 != 0) responders.push_back(i);
  }
  const std::vector<double> masked_sum(dim, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.unmask_sum(masked_sum, responders));
  }
}
BENCHMARK(BM_UnmaskWithDropouts)->Arg(10)->Arg(50)->Arg(200);

void BM_DpClipAndNoise(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> v(dim);
  for (auto& x : v) x = rng.normal(0.0, 1.0);
  for (auto _ : state) {
    std::vector<double> copy = v;
    flips::privacy::clip_to_norm(copy, 1.0);
    flips::privacy::add_gaussian_noise(copy, 0.01, rng);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DpClipAndNoise)->Arg(10'000)->Arg(100'000);

void BM_RdpAccountantEpsilon(benchmark::State& state) {
  flips::privacy::RdpAccountant acc;
  acc.steps(1.0, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(acc.epsilon(1e-5));
  }
}
BENCHMARK(BM_RdpAccountantEpsilon)->Arg(100)->Arg(1000);

std::vector<flips::cluster::Point> bench_lds(std::size_t n) {
  Rng rng(9);
  std::vector<flips::cluster::Point> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    points[i] = rng.dirichlet(0.3, 10);
  }
  return points;
}

void BM_LloydKMeans(benchmark::State& state) {
  const auto points = bench_lds(static_cast<std::size_t>(state.range(0)));
  flips::cluster::KMeansConfig config;
  config.k = 10;
  for (auto _ : state) {
    Rng rng(11);
    benchmark::DoNotOptimize(flips::cluster::kmeans(points, config, rng));
  }
}
BENCHMARK(BM_LloydKMeans)->Arg(1'000)->Arg(10'000);

void BM_MiniBatchKMeans(benchmark::State& state) {
  const auto points = bench_lds(static_cast<std::size_t>(state.range(0)));
  flips::cluster::MiniBatchKMeansConfig config;
  config.k = 10;
  config.batch_size = 256;
  config.iterations = 100;
  for (auto _ : state) {
    Rng rng(11);
    benchmark::DoNotOptimize(
        flips::cluster::minibatch_kmeans(points, config, rng));
  }
}
BENCHMARK(BM_MiniBatchKMeans)->Arg(1'000)->Arg(10'000)->Arg(50'000);

// The paper's MLPs (in -> 24 tanh -> classes) at their local batch size:
// femnist-fedavg (64 -> 62 classes, the wide-output kernel path) and
// ecg (32 -> 5 classes, the narrow-output path of layers under 8 lanes).
constexpr std::size_t kHidden = 24;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kFemnistIn = 64;
constexpr std::size_t kFemnistClasses = 62;
constexpr std::size_t kEcgIn = 32;
constexpr std::size_t kEcgClasses = 5;

std::vector<double> bench_values(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

flips::ml::Tensor bench_features(std::size_t rows, std::size_t cols,
                                 Rng& rng) {
  flips::ml::Tensor x(rows, cols);
  for (std::size_t k = 0; k < x.size(); ++k) x.data()[k] = rng.normal();
  return x;
}

/// One forward, backward and SGD step, the unit of local training.
void mlp_train_step(benchmark::State& state, std::size_t in,
                    std::size_t classes) {
  Rng rng(13);
  auto model = flips::ml::ModelFactory::mlp(in, kHidden, classes, rng);
  const flips::ml::Tensor x = bench_features(kBatch, in, rng);
  std::vector<std::uint32_t> labels(kBatch);
  for (auto& label : labels) {
    label = static_cast<std::uint32_t>(rng.uniform_index(classes));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step_gradient(x, labels));
    model.apply_gradients(0.01);
    benchmark::DoNotOptimize(model.mutable_parameters().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}

/// One eval chunk (the session evaluates in fixed 64-row chunks).
void mlp_eval_forward(benchmark::State& state, std::size_t in,
                      std::size_t classes) {
  Rng rng(17);
  auto model = flips::ml::ModelFactory::mlp(in, kHidden, classes, rng);
  const std::size_t rows = 64;
  const flips::ml::Tensor x = bench_features(rows, in, rng);
  for (auto _ : state) {
    const flips::ml::Tensor& logits = model.forward(x.data(), x.rows());
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}

void BM_MlpTrainStep(benchmark::State& state) {
  mlp_train_step(state, kFemnistIn, kFemnistClasses);
}
BENCHMARK(BM_MlpTrainStep);

void BM_MlpEvalForward(benchmark::State& state) {
  mlp_eval_forward(state, kFemnistIn, kFemnistClasses);
}
BENCHMARK(BM_MlpEvalForward);

void BM_EcgTrainStep(benchmark::State& state) {
  mlp_train_step(state, kEcgIn, kEcgClasses);
}
BENCHMARK(BM_EcgTrainStep);

void BM_EcgEvalForward(benchmark::State& state) {
  mlp_eval_forward(state, kEcgIn, kEcgClasses);
}
BENCHMARK(BM_EcgEvalForward);

// One dense layer's kernels at the local batch size; Args = {in, out}.
// 32 -> 24 and 24 -> 5 are the ecg layers, 24 -> 62 femnist's output.
void BM_DenseForward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  Rng rng(19);
  const auto x = bench_values(kBatch * in, rng);
  const auto w = bench_values(in * out, rng);
  const auto b = bench_values(out, rng);
  std::vector<double> y(kBatch * out);
  for (auto _ : state) {
    flips::ml::dense_forward(x.data(), w.data(), b.data(), y.data(), kBatch,
                             in, out);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_DenseForward)->Args({32, 24})->Args({24, 5})->Args({24, 62});

void BM_DenseWeightGrad(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  Rng rng(23);
  const auto x = bench_values(kBatch * in, rng);
  const auto g = bench_values(kBatch * out, rng);
  std::vector<double> gw(in * out, 0.0);
  std::vector<double> gb(out, 0.0);
  for (auto _ : state) {
    flips::ml::dense_backward_params(x.data(), g.data(), gw.data(),
                                     gb.data(), kBatch, in, out);
    benchmark::DoNotOptimize(gw.data());
  }
}
BENCHMARK(BM_DenseWeightGrad)->Args({32, 24})->Args({24, 5})->Args({24, 62});

// The hidden activation of one local batch: 32 rows x 24 units.
void BM_TanhElements(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(27);
  const auto x = bench_values(n, rng);
  std::vector<double> y(n);
  for (auto _ : state) {
    flips::ml::tanh_elements(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_TanhElements)->Arg(kBatch * kHidden);

// quant8 encode of one update; 917 is the ecg MLP's parameter count.
void BM_Quant8Encode(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(29);
  const auto update = bench_values(dim, rng);
  flips::net::CodecConfig config;
  config.codec = flips::net::Codec::kQuant8;
  const flips::net::UpdateCodec codec(config);
  flips::net::EncodedUpdate encoded;
  flips::net::CodecWorkspace workspace;
  for (auto _ : state) {
    codec.encode(update, rng, encoded, workspace);
    benchmark::DoNotOptimize(encoded.q.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Quant8Encode)->Arg(917);

}  // namespace

BENCHMARK_MAIN();
