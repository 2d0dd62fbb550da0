// Micro-benchmarks for per-round participant-selection latency of every
// strategy. FLIPS's selection is one O(N) pass and must stay negligible
// next to training (§3.4: "fast and minuscule relative to FL training
// time"); GradClus pays for hierarchical clustering every round.
#include <benchmark/benchmark.h>

#include "selection/factory.h"

namespace {

flips::select::SelectorContext make_context(std::size_t n) {
  flips::select::SelectorContext ctx;
  ctx.num_parties = n;
  ctx.seed = 42;
  ctx.cluster_of.resize(n);
  for (std::size_t p = 0; p < n; ++p) ctx.cluster_of[p] = p % 10;
  ctx.num_clusters = 10;
  ctx.latencies.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    ctx.latencies[p] = 1.0 + static_cast<double>(p % 7);
  }
  return ctx;
}

/// Feedback that marks every selected party as responded with plausible
/// stats, so stateful selectors exercise their update paths.
std::vector<flips::fl::PartyFeedback> fake_feedback(
    const std::vector<std::size_t>& selected) {
  std::vector<flips::fl::PartyFeedback> feedback(selected.size());
  for (std::size_t i = 0; i < selected.size(); ++i) {
    feedback[i].party_id = selected[i];
    feedback[i].responded = true;
    feedback[i].num_samples = 100;
    feedback[i].mean_loss = 1.0;
    feedback[i].loss_rms = 1.2;
    feedback[i].duration_s = 0.5;
    feedback[i].delta.assign(64, 0.01);
  }
  return feedback;
}

void run_selector_bench(benchmark::State& state,
                        flips::select::SelectorKind kind) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ctx = make_context(n);
  auto selector = flips::select::make_selector(kind, ctx);
  const std::size_t nr = n / 5;
  std::size_t round = 0;
  for (auto _ : state) {
    ++round;
    auto selected = selector->select(round, nr);
    benchmark::DoNotOptimize(selected);
    state.PauseTiming();
    selector->report_round(round, fake_feedback(selected));
    state.ResumeTiming();
  }
}

void BM_SelectRandom(benchmark::State& state) {
  run_selector_bench(state, flips::select::SelectorKind::kRandom);
}
void BM_SelectFlips(benchmark::State& state) {
  run_selector_bench(state, flips::select::SelectorKind::kFlips);
}
void BM_SelectOort(benchmark::State& state) {
  run_selector_bench(state, flips::select::SelectorKind::kOort);
}
void BM_SelectGradClus(benchmark::State& state) {
  run_selector_bench(state, flips::select::SelectorKind::kGradClus);
}
void BM_SelectTifl(benchmark::State& state) {
  run_selector_bench(state, flips::select::SelectorKind::kTifl);
}
void BM_SelectPowerOfChoice(benchmark::State& state) {
  run_selector_bench(state, flips::select::SelectorKind::kPowerOfChoice);
}

BENCHMARK(BM_SelectRandom)->Range(100, 1600);
BENCHMARK(BM_SelectFlips)->Range(100, 1600);
BENCHMARK(BM_SelectOort)->Range(100, 1600);
BENCHMARK(BM_SelectGradClus)->Range(100, 400);  // O(n³) per round
BENCHMARK(BM_SelectTifl)->Range(100, 1600);
BENCHMARK(BM_SelectPowerOfChoice)->Range(100, 1600);

}  // namespace

BENCHMARK_MAIN();
