// Microbenchmarks for the privacy substrate, clustering and the ML
// kernels: masking / unmasking throughput vs vector dimension and roster
// size, DP clip+noise, RDP accounting, mini-batch vs Lloyd k-means, and
// one MLP train step / eval forward at the femnist shape.
#include <benchmark/benchmark.h>

#include "cluster/kmeans.h"
#include "cluster/minibatch_kmeans.h"
#include "common/rng.h"
#include "ml/model.h"
#include "ml/sgd.h"
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

// The femnist-fedavg model (64 -> 24 tanh -> 62) at its local batch
// size: one forward, backward and SGD step, the unit of local training.
constexpr std::size_t kFemnistIn = 64;
constexpr std::size_t kFemnistHidden = 24;
constexpr std::size_t kFemnistClasses = 62;

flips::ml::Tensor bench_features(std::size_t rows, Rng& rng) {
  flips::ml::Tensor x(rows, kFemnistIn);
  for (std::size_t k = 0; k < x.size(); ++k) x.data()[k] = rng.normal();
  return x;
}

void BM_MlpTrainStep(benchmark::State& state) {
  Rng rng(13);
  auto model = flips::ml::ModelFactory::mlp(kFemnistIn, kFemnistHidden,
                                            kFemnistClasses, rng);
  const std::size_t batch = 32;
  const flips::ml::Tensor x = bench_features(batch, rng);
  std::vector<std::uint32_t> labels(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    labels[b] = static_cast<std::uint32_t>(rng.uniform_index(kFemnistClasses));
  }
  const flips::ml::SgdOptimizer sgd({.learning_rate = 0.01});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.train_step_gradient(x, labels));
    sgd.step(model, 0.01);
    benchmark::DoNotOptimize(model.mutable_parameters().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_MlpTrainStep);

// One eval chunk (the session evaluates in fixed 64-row chunks).
void BM_MlpEvalForward(benchmark::State& state) {
  Rng rng(17);
  auto model = flips::ml::ModelFactory::mlp(kFemnistIn, kFemnistHidden,
                                            kFemnistClasses, rng);
  const std::size_t rows = 64;
  const flips::ml::Tensor x = bench_features(rows, rng);
  for (auto _ : state) {
    const flips::ml::Tensor& logits = model.forward(x);
    benchmark::DoNotOptimize(logits.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows));
}
BENCHMARK(BM_MlpEvalForward);

}  // namespace

BENCHMARK_MAIN();
