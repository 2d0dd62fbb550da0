// Micro-benchmarks for the aggregation path: the legacy collect-then-
// fold (`aggregate_updates`), the aggregation plane's ordered fold
// (fl/aggregator.h), each wire codec's encode/decode, and each server
// optimizer's apply step, across model sizes.
//
// Besides the BM_ cases, main() emits two machine-readable reports:
//   aggcmp,<mode>,<parties>,<dim>,<legacy_GBps>,<plane_GBps>,<speedup>
//     — the legacy-vs-plane throughput comparison, and
//   alloc,steady_state,<count>
//     — heap allocations observed across measured rounds of the full
//       lease -> encode/decode -> add -> finalize -> release cycle
//       AFTER warm-up. The plane's contract is 0.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <utility>

#include "common/rng.h"
#include "fl/aggregator.h"
#include "fl/server_optimizer.h"
#include "net/codec.h"

// ---- Global allocation counter (this binary only). Counts every
// operator-new so the steady-state aggregation rounds can prove they
// allocate nothing.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// noinline: if gcc inlines these into call sites it pattern-matches
// the underlying malloc/free pair and raises a spurious
// -Wmismatched-new-delete (the replacement pattern is exactly
// malloc-in-new / free-in-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace {

std::vector<flips::fl::LocalUpdate> make_updates(std::size_t parties,
                                                 std::size_t dim) {
  flips::common::Rng rng(42);
  std::vector<flips::fl::LocalUpdate> updates(parties);
  for (auto& u : updates) {
    u.num_samples = 50 + rng.uniform_index(100);
    u.delta.resize(dim);
    for (auto& d : u.delta) d = rng.normal(0.0, 0.01);
  }
  return updates;
}

void BM_AggregateUpdates(benchmark::State& state) {
  const auto parties = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto updates = make_updates(parties, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flips::fl::aggregate_updates(updates));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(parties * dim *
                                                    sizeof(double)));
}
BENCHMARK(BM_AggregateUpdates)
    ->Args({10, 1000})
    ->Args({40, 1000})
    ->Args({64, 100000})
    ->Args({200, 100000});

/// One full aggregator round over pre-materialized deltas:
/// begin_round, add every cohort slot in order, finalize (one fold).
void BM_OrderedFold(benchmark::State& state) {
  const auto parties = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto updates = make_updates(parties, dim);
  flips::fl::Aggregator aggregator;
  for (auto _ : state) {
    aggregator.begin_round(dim);
    for (std::size_t k = 0; k < parties; ++k) {
      aggregator.add(static_cast<double>(updates[k].num_samples),
                     updates[k].delta);
    }
    benchmark::DoNotOptimize(aggregator.finalize().data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(parties * dim *
                                                    sizeof(double)));
}
BENCHMARK(BM_OrderedFold)
    ->Args({10, 1000})
    ->Args({40, 1000})
    ->Args({64, 100000})
    ->Args({200, 100000});

void run_codec(benchmark::State& state, flips::net::Codec which) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  flips::net::CodecConfig config;
  config.codec = which;
  const flips::net::UpdateCodec codec(config);
  flips::common::Rng rng(7);
  std::vector<double> update(dim);
  for (auto& v : update) v = rng.normal(0.0, 0.01);
  flips::net::EncodedUpdate enc;
  flips::net::CodecWorkspace ws;
  std::vector<double> decoded;
  for (auto _ : state) {
    codec.encode(update, rng, enc, ws);
    codec.decode(enc, decoded);
    benchmark::DoNotOptimize(decoded.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * sizeof(double)));
}
void BM_CodecQuant8(benchmark::State& state) {
  run_codec(state, flips::net::Codec::kQuant8);
}
void BM_CodecTopK(benchmark::State& state) {
  run_codec(state, flips::net::Codec::kTopK);
}
BENCHMARK(BM_CodecQuant8)->Arg(10000)->Arg(100000);
BENCHMARK(BM_CodecTopK)->Arg(10000)->Arg(100000);

void run_server_opt(benchmark::State& state, flips::fl::ServerOpt opt) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  flips::fl::ServerOptConfig config;
  config.optimizer = opt;
  config.learning_rate = opt == flips::fl::ServerOpt::kFedAvg ? 1.0 : 0.05;
  flips::fl::ServerOptimizer server(config, dim);

  flips::common::Rng rng(7);
  std::vector<double> params(dim), grad(dim);
  for (auto& p : params) p = rng.normal();
  for (auto& g : grad) g = rng.normal(0.0, 0.01);

  for (auto _ : state) {
    server.apply(params, grad);
    benchmark::DoNotOptimize(params.data());
  }
}

void BM_ServerFedAvg(benchmark::State& state) {
  run_server_opt(state, flips::fl::ServerOpt::kFedAvg);
}
void BM_ServerFedAdagrad(benchmark::State& state) {
  run_server_opt(state, flips::fl::ServerOpt::kFedAdagrad);
}
void BM_ServerFedAdam(benchmark::State& state) {
  run_server_opt(state, flips::fl::ServerOpt::kFedAdam);
}
void BM_ServerFedYogi(benchmark::State& state) {
  run_server_opt(state, flips::fl::ServerOpt::kFedYogi);
}

BENCHMARK(BM_ServerFedAvg)->Range(1000, 1000000);
BENCHMARK(BM_ServerFedAdagrad)->Range(1000, 1000000);
BENCHMARK(BM_ServerFedAdam)->Range(1000, 1000000);
BENCHMARK(BM_ServerFedYogi)->Range(1000, 1000000);

// ---- Explicit legacy-vs-plane comparison. ----

double measure_seconds(const std::function<void()>& fn,
                       double min_seconds) {
  using Clock = std::chrono::steady_clock;
  // One warm-up call, then run until the time budget is consumed.
  fn();
  std::size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(iters);
}

void compare_case(const char* mode, std::size_t parties, std::size_t dim,
                  double legacy_s, double plane_s) {
  const double bytes = static_cast<double>(parties * dim * sizeof(double));
  const double legacy_gbps = bytes / legacy_s / 1e9;
  const double plane_gbps = bytes / plane_s / 1e9;
  std::printf("%-11s %-8zu %-8zu %14.2f %14.2f %9.2fx\n", mode, parties,
              dim, legacy_gbps, plane_gbps, legacy_s / plane_s);
  std::printf("aggcmp,%s,%zu,%zu,%.3f,%.3f,%.3f\n", mode, parties, dim,
              legacy_gbps, plane_gbps, legacy_s / plane_s);
}

void throughput_comparison() {
  std::printf("\nlegacy vs aggregation plane (single-thread, weighted "
              "mean, bit-identical results)\n");
  std::printf("  round-path: what the round loop actually did per round "
              "(copy every delta into a LocalUpdate, then fold) vs the "
              "plane (lease + borrow-add + one ordered fold)\n");
  std::printf("  kernel:     pre-materialized buffers, fold only\n");
  std::printf("%-11s %-8s %-8s %14s %14s %10s\n", "mode", "parties",
              "dim", "legacy GB/s", "plane GB/s", "speedup");

  constexpr std::pair<std::size_t, std::size_t> kCases[] = {
      {64, 100000}, {128, 100000}, {200, 100000}, {64, 10000}};
  for (const auto& [parties, dim] : kCases) {
    const auto updates = make_updates(parties, dim);

    // Round path: the pre-plane job loop rebuilt a LocalUpdate vector
    // every round — one fresh allocation + full copy per party — and
    // aggregate_updates allocated its output. (The per-party deltas
    // themselves are produced by training in both worlds, so their
    // fill is outside both timings.)
    const double legacy_path_s = measure_seconds(
        [&] {
          std::vector<flips::fl::LocalUpdate> collected;
          collected.reserve(updates.size());
          for (const auto& u : updates) {
            flips::fl::LocalUpdate copy;
            copy.num_samples = u.num_samples;
            copy.delta = u.delta;
            collected.push_back(std::move(copy));
          }
          benchmark::DoNotOptimize(
              flips::fl::aggregate_updates(collected));
        },
        0.2);

    flips::fl::BufferArena arena;
    flips::fl::Aggregator aggregator;
    std::vector<std::vector<double>> leased(parties);
    const double plane_path_s = measure_seconds(
        [&] {
          aggregator.begin_round(dim);
          for (std::size_t k = 0; k < parties; ++k) {
            leased[k] = arena.lease(dim);
            std::memcpy(leased[k].data(), updates[k].delta.data(),
                        dim * sizeof(double));
            aggregator.add(static_cast<double>(updates[k].num_samples),
                           leased[k]);
          }
          benchmark::DoNotOptimize(aggregator.finalize().data());
          for (std::size_t k = 0; k < parties; ++k) {
            arena.release(std::move(leased[k]));
          }
        },
        0.2);
    compare_case("round-path", parties, dim, legacy_path_s, plane_path_s);

    const double legacy_kernel_s = measure_seconds(
        [&] {
          benchmark::DoNotOptimize(flips::fl::aggregate_updates(updates));
        },
        0.2);
    const double plane_kernel_s = measure_seconds(
        [&] {
          aggregator.begin_round(dim);
          for (std::size_t k = 0; k < parties; ++k) {
            aggregator.add(static_cast<double>(updates[k].num_samples),
                           updates[k].delta);
          }
          benchmark::DoNotOptimize(aggregator.finalize().data());
        },
        0.2);
    compare_case("kernel", parties, dim, legacy_kernel_s, plane_kernel_s);
  }
}

// ---- Steady-state allocation audit of the full aggregation plane:
// lease party buffers, quant8 encode/decode with error feedback,
// add, finalize, release — the round loop's wire path. After the
// warm-up rounds the arena and the reused codec buffers must make
// this allocation-free.
void allocation_audit() {
  constexpr std::size_t kParties = 64;
  constexpr std::size_t kDim = 10000;
  constexpr std::size_t kWarmup = 3;
  constexpr std::size_t kMeasured = 20;

  flips::common::Rng rng(11);
  std::vector<std::vector<double>> raw(kParties,
                                       std::vector<double>(kDim));
  for (auto& v : raw) {
    for (auto& x : v) x = rng.normal(0.0, 0.01);
  }
  std::vector<std::vector<double>> residuals(kParties);

  flips::net::CodecConfig cc;
  cc.codec = flips::net::Codec::kQuant8;
  const flips::net::UpdateCodec codec(cc);
  flips::net::EncodedUpdate enc;
  flips::net::CodecWorkspace ws;

  flips::fl::BufferArena arena;
  flips::fl::Aggregator aggregator;
  std::vector<std::vector<double>> leased(kParties);

  std::uint64_t base = 0;
  for (std::size_t round = 0; round < kWarmup + kMeasured; ++round) {
    if (round == kWarmup) {
      base = g_allocations.load(std::memory_order_relaxed);
    }
    aggregator.begin_round(kDim);
    for (std::size_t k = 0; k < kParties; ++k) {
      std::vector<double> pre = arena.lease(kDim);
      if (residuals[k].empty()) {
        std::memcpy(pre.data(), raw[k].data(), kDim * sizeof(double));
      } else {
        for (std::size_t i = 0; i < kDim; ++i) {
          pre[i] = raw[k][i] + residuals[k][i];
        }
      }
      codec.encode(pre, rng, enc, ws);
      leased[k] = arena.lease(kDim);
      codec.decode(enc, leased[k]);
      if (residuals[k].empty()) residuals[k].assign(kDim, 0.0);
      for (std::size_t i = 0; i < kDim; ++i) {
        residuals[k][i] = pre[i] - leased[k][i];
      }
      arena.release(std::move(pre));
      aggregator.add(1.0, leased[k]);
    }
    benchmark::DoNotOptimize(aggregator.finalize().data());
    for (std::size_t k = 0; k < kParties; ++k) {
      arena.release(std::move(leased[k]));
    }
  }
  const std::uint64_t steady =
      g_allocations.load(std::memory_order_relaxed) - base;
  std::printf("\nheap allocations across %zu steady-state rounds "
              "(%zu parties x dim %zu, quant8 wire path): %llu\n",
              kMeasured, kParties, kDim,
              static_cast<unsigned long long>(steady));
  std::printf("alloc,steady_state,%llu\n",
              static_cast<unsigned long long>(steady));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const int rc = benchmark::RunSpecifiedBenchmarks();
  throughput_comparison();
  allocation_audit();
  return rc;
}
