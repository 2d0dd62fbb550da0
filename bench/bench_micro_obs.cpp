// Micro-benchmarks for the telemetry plane (src/obs): instrument
// hot-path costs, a steady-state allocation audit, and the end-to-end
// A/B overhead of a fully instrumented federation session.
//
// Besides the BM_ cases, main() emits machine-readable lines the CI
// perf job gates on:
//   obs,counter_inc_ns,<ns>        — must stay < 10
//   obs,histogram_record_ns,<ns>   — must stay < 25
//   obs,tracer_record_ns,<ns>      — informational (locked sink write)
//   alloc,obs_steady_state,<count> — the plane's contract is 0
//   perf,obs,ab,<off_s>,<on_s>,<pct> — instrumented session overhead,
//       thread CPU time, min over reps for both arms; must stay < 1%.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <new>

#include "fl/metrics_observer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scenario/spec.h"

// ---- Global allocation counter (this binary only). Counts every
// operator-new so the steady-state telemetry loop can prove it
// allocates nothing.
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

using Clock = std::chrono::steady_clock;

void BM_CounterInc(benchmark::State& state) {
  flips::obs::Counter counter;
  for (auto _ : state) counter.inc();
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_CounterInc);

void BM_GaugeSet(benchmark::State& state) {
  flips::obs::Gauge gauge;
  double v = 0.0;
  for (auto _ : state) gauge.set(v += 1.0);
  benchmark::DoNotOptimize(gauge.value());
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  flips::obs::Histogram histogram;
  double v = 1e-6;
  for (auto _ : state) {
    histogram.record(v);
    v *= 1.7;
    if (v > 1e5) v = 1e-6;
  }
  benchmark::DoNotOptimize(histogram.count());
}
BENCHMARK(BM_HistogramRecord);

void BM_TracerRecord(benchmark::State& state) {
  flips::obs::Tracer tracer;
  tracer.set_sink(std::make_shared<flips::obs::NullTraceSink>());
  flips::obs::Span span;
  span.set_name("bench");
  std::size_t recorded = 0;
  for (auto _ : state) {
    span.id = ++recorded;
    tracer.record(span);
  }
  benchmark::DoNotOptimize(span.id);
}
BENCHMARK(BM_TracerRecord);

// ---- ns/op measurements for the gate lines. Batch-timed (one clock
// read per batch, not per op), min over reps to strip scheduler noise.

template <typename Fn>
double min_ns_per_op(std::size_t iters, std::size_t reps, Fn&& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn(i);
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - start)
            .count() /
        static_cast<double>(iters);
    if (ns < best) best = ns;
  }
  return best;
}

void hot_path_costs() {
  constexpr std::size_t kIters = 1 << 22;
  constexpr std::size_t kReps = 5;

  flips::obs::Counter counter;
  const double counter_ns =
      min_ns_per_op(kIters, kReps, [&](std::size_t) { counter.inc(); });
  benchmark::DoNotOptimize(counter.value());

  // Pre-spread sample values across the bucket range so the record
  // loop exercises the real index computation, not one hot bucket.
  flips::obs::Histogram histogram;
  double samples[64];
  double v = 1e-6;
  for (double& s : samples) {
    s = v;
    v *= 1.9;
    if (v > 1e5) v = 1e-6;
  }
  const double histogram_ns = min_ns_per_op(
      kIters, kReps,
      [&](std::size_t i) { histogram.record(samples[i & 63]); });
  benchmark::DoNotOptimize(histogram.count());

  flips::obs::Tracer tracer;
  tracer.set_sink(std::make_shared<flips::obs::NullTraceSink>());
  flips::obs::Span span;
  span.set_name("bench");
  const double tracer_ns =
      min_ns_per_op(kIters / 4, kReps, [&](std::size_t i) {
        span.id = i;
        tracer.record(span);
      });

  std::printf("\ntelemetry hot paths (min over %zu reps): counter.inc "
              "%.2f ns, histogram.record %.2f ns, tracer.record %.2f "
              "ns\n",
              kReps, counter_ns, histogram_ns, tracer_ns);
  std::printf("obs,counter_inc_ns,%.2f\n", counter_ns);
  std::printf("obs,histogram_record_ns,%.2f\n", histogram_ns);
  std::printf("obs,tracer_record_ns,%.2f\n", tracer_ns);
}

// ---- Steady-state allocation audit: registration (which may
// allocate) happens once up front; after that, counter/gauge/
// histogram updates and span records into a null sink must not touch
// the heap.
void allocation_audit() {
  constexpr std::size_t kWarmup = 1000;
  constexpr std::size_t kMeasured = 1 << 20;

  flips::obs::Registry registry;
  flips::obs::Counter* counter =
      &registry.counter("obs_bench_events_total", {{"kind", "audit"}});
  flips::obs::Gauge* gauge = &registry.gauge("obs_bench_level");
  flips::obs::Histogram* histogram =
      &registry.histogram("obs_bench_seconds");
  flips::obs::Tracer tracer;
  tracer.set_sink(std::make_shared<flips::obs::NullTraceSink>());
  flips::obs::Span span;
  span.set_name("audit");

  std::uint64_t base = 0;
  for (std::size_t i = 0; i < kWarmup + kMeasured; ++i) {
    if (i == kWarmup) base = g_allocations.load(std::memory_order_relaxed);
    counter->inc();
    gauge->set(static_cast<double>(i));
    histogram->record(1e-6 * static_cast<double>((i & 1023) + 1));
    span.id = i;
    tracer.record(span);
  }
  const std::uint64_t steady =
      g_allocations.load(std::memory_order_relaxed) - base;
  std::printf("\nheap allocations across %zu steady-state telemetry "
              "iterations (counter + gauge + histogram + span): "
              "%llu\n",
              kMeasured, static_cast<unsigned long long>(steady));
  std::printf("alloc,obs_steady_state,%llu\n",
              static_cast<unsigned long long>(steady));
}

// ---- A/B overhead: the same federation stepped bare vs fully
// instrumented (MetricsObserver emitting into a private registry plus
// phase/round spans through a null-sink tracer — the serving plane's
// exact per-session wiring). Each arm is timed in CPU time of the
// calling thread, not wall time: with threads = 1 the session trains
// and evaluates inline on that thread, so the clock sees all of its
// work and none of the time the thread spends descheduled. Min over
// reps for both arms.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double run_arm(const flips::ExperimentConfig& config,
               flips::select::SelectorKind kind, bool instrumented,
               flips::obs::Registry* registry, flips::obs::Tracer* tracer) {
  auto session = flips::make_session(config, kind, config.seed);
  if (instrumented) {
    session->add_observer(std::make_shared<flips::fl::MetricsObserver>(
        "ab", registry, tracer));
  }
  const double start = thread_cpu_seconds();
  while (!session->done()) session->advance();
  benchmark::DoNotOptimize(session->result().final_parameters.data());
  return thread_cpu_seconds() - start;
}

void ab_overhead() {
  // Sized so one arm runs tens of milliseconds; threads = 1 keeps
  // every phase on the timed thread.
  flips::ScenarioSpec spec = flips::scenario_preset("ecg-fedavg");
  spec.parties = 24;
  spec.samples_per_party = 40;
  spec.rounds = 200;
  spec.threads = 1;
  const auto config = flips::to_experiment_config(spec);
  const auto kind = flips::selector_kind(spec);

  flips::obs::Registry registry;
  flips::obs::Tracer tracer;
  tracer.set_sink(std::make_shared<flips::obs::NullTraceSink>());

  // One throwaway pair warms caches and the allocator; then alternate
  // arms so load spikes hit both equally, and take the min — the only
  // estimator that converges under one-sided scheduler noise.
  run_arm(config, kind, false, nullptr, nullptr);
  run_arm(config, kind, true, &registry, &tracer);
  constexpr std::size_t kReps = 21;
  double off_s = 1e300;
  double on_s = 1e300;
  for (std::size_t r = 0; r < kReps; ++r) {
    off_s = std::min(off_s, run_arm(config, kind, false, nullptr, nullptr));
    on_s = std::min(on_s, run_arm(config, kind, true, &registry, &tracer));
  }
  const double pct = (on_s - off_s) / off_s * 100.0;
  std::printf("\ninstrumented session A/B (%zu parties, %zu rounds, "
              "thread CPU time, min over %zu reps): bare %.4f s, "
              "instrumented %.4f s, overhead %.3f%%\n",
              spec.parties, spec.rounds, kReps, off_s, on_s, pct);
  std::printf("perf,obs,ab,%.4f,%.4f,%.3f\n", off_s, on_s, pct);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const int rc = benchmark::RunSpecifiedBenchmarks();
  hot_path_costs();
  allocation_audit();
  ab_overhead();
  return rc;
}
