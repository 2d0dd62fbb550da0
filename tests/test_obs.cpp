// Telemetry plane (src/obs): counter exactness under concurrent
// writers, gauge set/add semantics, histogram bucket math (boundaries,
// under/overflow, merge, nearest-rank quantiles within one bucket of
// the exact sample quantile — including the load generator's latency
// config), registry get-or-create / mismatch contracts, the Prometheus
// text exposition (golden text + round-trip through the parser the
// loadgen's --metrics check uses), and the tracer's delivery of every
// span to its sink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using flips::obs::Counter;
using flips::obs::Gauge;
using flips::obs::Histogram;
using flips::obs::HistogramConfig;
using flips::obs::Registry;
using flips::obs::Span;
using flips::obs::Tracer;
using flips::obs::TraceSink;

TEST(Counter, ConcurrentIncrementsAreExact) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, IncByN) {
  Counter counter;
  counter.inc(5);
  counter.inc();
  EXPECT_EQ(counter.value(), 6u);
}

TEST(Gauge, SetAndConcurrentAddsAreExact) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(-2.5);
  EXPECT_EQ(gauge.value(), -2.5);

  gauge.set(0.0);
  constexpr std::size_t kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  // Every intermediate sum is an exactly representable integer, so the
  // CAS-add loses nothing.
  EXPECT_EQ(gauge.value(), static_cast<double>(kThreads * kPerThread));
}

TEST(Histogram, RejectsInvalidConfigs) {
  EXPECT_THROW(Histogram({0.0, 1.0, 3}), std::invalid_argument);
  EXPECT_THROW(Histogram({-1.0, 1.0, 3}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0, 3}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 2.0, 9}), std::invalid_argument);
}

TEST(Histogram, BucketBoundariesContainRecordedValues) {
  const HistogramConfig config{1e-3, 1e3, 3};
  Histogram histogram(config);
  for (double v = 1.1e-3; v < 0.9e3; v *= 1.37) {
    const std::size_t i = histogram.index(v);
    ASSERT_GT(i, 0u) << v;
    ASSERT_LT(i, histogram.bucket_count() - 1) << v;
    EXPECT_LE(histogram.lower_edge(i), v);
    EXPECT_GT(histogram.upper_edge(i), v);
  }
  // Edges tile the range: bucket i's upper edge is bucket i+1's lower.
  for (std::size_t i = 1; i + 2 < histogram.bucket_count(); ++i) {
    EXPECT_EQ(histogram.upper_edge(i), histogram.lower_edge(i + 1));
  }
}

TEST(Histogram, UnderflowAndOverflowBuckets) {
  Histogram histogram({1.0, 16.0, 0});
  histogram.record(0.0);
  histogram.record(-3.0);
  histogram.record(std::nan(""));
  histogram.record(0.5);
  EXPECT_EQ(histogram.bucket_value(0), 4u);

  histogram.record(16.0);
  histogram.record(1e300);
  EXPECT_EQ(histogram.bucket_value(histogram.bucket_count() - 1), 2u);
  EXPECT_EQ(histogram.count(), 6u);

  // Quantiles landing in the sentinel buckets clamp to the grid edges.
  EXPECT_EQ(histogram.quantile(0.0), 1.0);
  EXPECT_EQ(histogram.quantile(1.0), 16.0);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram histogram;
  EXPECT_EQ(histogram.quantile(0.5), 0.0);
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum(), 0.0);
}

/// Nearest-rank quantiles must land within one bucket of the exact
/// sample quantile — checked on the loadgen's latency config, the
/// instrument that replaced its unbounded per-step latency vector.
TEST(Histogram, QuantilesWithinOneBucketOfExact) {
  const HistogramConfig config{1e-3, 1e5, 3};  // loadgen latency_ms
  Histogram histogram(config);
  std::vector<double> samples;
  // Deterministic spread across ~6 decades, non-monotone on purpose.
  for (std::size_t i = 0; i < 4000; ++i) {
    const double v =
        std::pow(10.0, 4.5 * std::abs(std::sin(0.1 * static_cast<double>(i))) -
                           1.5);
    samples.push_back(v);
    histogram.record(v);
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());

  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const std::uint64_t rank = std::min<std::uint64_t>(
        sorted.size() - 1,
        static_cast<std::uint64_t>(q * static_cast<double>(sorted.size())));
    const double exact = sorted[rank];
    const double estimate = histogram.quantile(q);
    const auto exact_bucket =
        static_cast<std::ptrdiff_t>(histogram.index(exact));
    const auto est_bucket =
        static_cast<std::ptrdiff_t>(histogram.index(estimate));
    EXPECT_LE(std::abs(est_bucket - exact_bucket), 1)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(Histogram, ConcurrentRecordsKeepExactCounts) {
  Histogram histogram;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (std::size_t i = 0; i < kPerThread; ++i) histogram.record(1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  EXPECT_EQ(histogram.sum(), static_cast<double>(kThreads * kPerThread));
}

TEST(Histogram, MergeAddsCountsAndRejectsMismatchedConfigs) {
  const HistogramConfig config{1e-3, 1e3, 3};
  Histogram a(config);
  Histogram b(config);
  a.record(0.5);
  a.record(2.0);
  b.record(2.0);
  b.record(2000.0);  // overflow
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 0.5 + 2.0 + 2.0 + 2000.0);
  EXPECT_EQ(a.bucket_value(a.bucket_count() - 1), 1u);

  Histogram other({1e-3, 1e3, 2});
  EXPECT_THROW(a.merge(other), std::logic_error);
}

TEST(Registry, GetOrCreateReturnsStablePointers) {
  Registry registry;
  Counter& a = registry.counter("events_total", {{"tenant", "a"}});
  Counter& same = registry.counter("events_total", {{"tenant", "a"}});
  Counter& other = registry.counter("events_total", {{"tenant", "b"}});
  EXPECT_EQ(&a, &same);
  EXPECT_NE(&a, &other);

  // Label order must not matter.
  Counter& multi = registry.counter("multi_total",
                                    {{"x", "1"}, {"y", "2"}});
  Counter& swapped = registry.counter("multi_total",
                                      {{"y", "2"}, {"x", "1"}});
  EXPECT_EQ(&multi, &swapped);
}

TEST(Registry, TypeAndConfigMismatchesThrow) {
  Registry registry;
  registry.counter("events_total");
  EXPECT_THROW(registry.gauge("events_total"), std::logic_error);
  EXPECT_THROW(registry.histogram("events_total"), std::logic_error);

  const HistogramConfig config{1e-6, 1e2, 3};
  registry.histogram("latency_seconds", {}, config);
  EXPECT_THROW(
      registry.histogram("latency_seconds", {}, HistogramConfig{1e-6, 1e3, 3}),
      std::logic_error);
  Histogram& same =
      registry.histogram("latency_seconds", {{"tenant", "a"}}, config);
  same.record(1.0);
  EXPECT_EQ(same.count(), 1u);
}

TEST(Registry, GoldenTextExpositionAndRoundTrip) {
  Registry registry;
  registry.counter("requests_total", {{"tenant", "a"}}).inc(3);
  registry.gauge("level").set(1.5);
  Histogram& h =
      registry.histogram("lat_seconds", {}, HistogramConfig{1.0, 16.0, 0});
  h.record(1.5);
  h.record(3.0);
  h.record(100.0);  // overflow → the +Inf bucket

  const std::string text = registry.text_exposition();
  EXPECT_EQ(text,
            "# TYPE lat_seconds histogram\n"
            "lat_seconds_bucket{le=\"2\"} 1\n"
            "lat_seconds_bucket{le=\"4\"} 2\n"
            "lat_seconds_bucket{le=\"+Inf\"} 3\n"
            "lat_seconds_sum 104.5\n"
            "lat_seconds_count 3\n"
            "# TYPE level gauge\n"
            "level 1.5\n"
            "# TYPE requests_total counter\n"
            "requests_total{tenant=\"a\"} 3\n");

  // Round-trip through the parser the loadgen's --metrics check uses.
  EXPECT_EQ(flips::obs::prometheus_family_sum(text, "requests_total"), 3.0);
  EXPECT_EQ(flips::obs::prometheus_family_sum(text, "lat_seconds_count"), 3.0);
  EXPECT_EQ(flips::obs::prometheus_family_sum(text, "lat_seconds_sum"), 104.5);
  EXPECT_EQ(flips::obs::prometheus_family_sum(text, "level"), 1.5);
  EXPECT_TRUE(flips::obs::prometheus_has_family(text, "lat_seconds_bucket"));
  EXPECT_FALSE(flips::obs::prometheus_has_family(text, "lat_seconds"));
  EXPECT_FALSE(flips::obs::prometheus_has_family(text, "absent_total"));
}

TEST(Registry, LabeledHistogramExpositionEmbedsLabels) {
  Registry registry;
  Histogram& h = registry.histogram("phase_seconds", {{"tenant", "t0"}},
                                    HistogramConfig{1.0, 4.0, 0});
  h.record(1.5);
  const std::string text = registry.text_exposition();
  EXPECT_NE(text.find("phase_seconds_bucket{tenant=\"t0\",le=\"2\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("phase_seconds_count{tenant=\"t0\"} 1"),
            std::string::npos)
      << text;
  EXPECT_EQ(
      flips::obs::prometheus_family_sum(text, "phase_seconds_count"), 1.0);
}

TEST(Registry, ConcurrentSameFamilyRegistrationIsSafe) {
  Registry registry;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(8, nullptr);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[t] = &registry.counter("races_total", {{"k", "v"}});
      seen[t]->inc();
    });
  }
  for (auto& thread : threads) thread.join();
  for (Counter* counter : seen) EXPECT_EQ(counter, seen[0]);
  EXPECT_EQ(seen[0]->value(), seen.size());
}

// ---------------------------------------------------------------------------
// Tracing

TEST(Span, NamesTruncateNotOverflow) {
  Span span;
  span.set_name("a-name-way-longer-than-the-twenty-four-byte-field");
  EXPECT_EQ(std::string(span.name).size(), 23u);
  span.set_tenant("t");
  EXPECT_EQ(std::string(span.tenant), "t");
}

struct CountingSink final : TraceSink {
  std::atomic<std::size_t> written{0};
  void write(const Span&) override {
    written.fetch_add(1, std::memory_order_relaxed);
  }
};

TEST(Tracer, DisabledTracerIsANoOp) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  Span span;
  for (int i = 0; i < 100; ++i) tracer.record(span);
  tracer.flush();

  // Clearing the sink disables the tracer again.
  auto sink = std::make_shared<CountingSink>();
  tracer.set_sink(sink);
  EXPECT_TRUE(tracer.enabled());
  tracer.set_sink(nullptr);
  EXPECT_FALSE(tracer.enabled());
  tracer.record(span);
  EXPECT_EQ(sink->written.load(), 0u);
}

TEST(Tracer, EverySpanReachesTheSink) {
  Tracer tracer;
  auto sink = std::make_shared<CountingSink>();
  tracer.set_sink(sink);
  Span span;
  for (int i = 0; i < 10000; ++i) tracer.record(span);
  EXPECT_EQ(sink->written.load(), 10000u);
}

/// Unsynchronized sink state: the tracer's mutex is what keeps
/// concurrent producers' writes apart (TSan flags a race otherwise).
struct IdSink final : TraceSink {
  std::vector<std::uint64_t> ids;
  void write(const Span& span) override { ids.push_back(span.id); }
};

TEST(Tracer, ConcurrentProducersDeliverEverySpan) {
  Tracer tracer;
  auto sink = std::make_shared<IdSink>();
  tracer.set_sink(sink);

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      Span span;
      span.set_name("producer");
      for (std::size_t i = 0; i < kPerThread; ++i) {
        span.id = t * kPerThread + i;
        tracer.record(span);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  tracer.set_sink(nullptr);
  ASSERT_EQ(sink->ids.size(), kThreads * kPerThread);
  std::sort(sink->ids.begin(), sink->ids.end());
  for (std::size_t i = 0; i < sink->ids.size(); ++i) {
    ASSERT_EQ(sink->ids[i], i);
  }
}

TEST(Tracer, NextIdIsUniqueAcrossThreads) {
  Tracer tracer;
  std::vector<std::uint64_t> ids(4 * 1000);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&tracer, &ids, t] {
      for (std::size_t i = 0; i < 1000; ++i) {
        ids[t * 1000 + i] = tracer.next_id();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
}

}  // namespace
