// Streaming control plane: threshold path selection, one point per
// party under concurrent submitters, rebuilds that do not depend on
// submission order at any size, incremental late-joiner assignment,
// and drift trigger/no-trigger behaviour.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "ctrl/drift_monitor.h"
#include "ctrl/streaming_cluster_engine.h"

namespace {

using flips::cluster::Point;
using flips::ctrl::DriftMonitor;
using flips::ctrl::DriftMonitorConfig;
using flips::ctrl::MembershipView;
using flips::ctrl::StreamingClusterConfig;
using flips::ctrl::StreamingClusterEngine;

/// A label distribution concentrated on `mode` (Hellinger-embedded,
/// like core::PrivateClusteringService feeds the engine).
flips::cluster::Point mode_point(std::size_t mode, std::size_t dim,
                                 double jitter = 0.0) {
  flips::cluster::Point p(dim, 0.02);
  p[mode % dim] = 0.8 + jitter;
  double sum = 0.0;
  for (const double v : p) sum += v;
  for (auto& v : p) v = std::sqrt(v / sum);
  return p;
}

StreamingClusterConfig small_config() {
  StreamingClusterConfig config;
  config.k_override = 3;
  config.restarts = 2;
  config.seed = 7;
  return config;
}

TEST(StreamingClusterEngine, LloydPathAtOrBelowThreshold) {
  StreamingClusterConfig config = small_config();
  config.lloyd_threshold = 30;
  StreamingClusterEngine engine(config);
  for (std::size_t p = 0; p < 30; ++p) {
    EXPECT_TRUE(engine.submit(p, mode_point(p % 3, 6)));
  }
  EXPECT_STREQ(engine.last_path(), "none");
  const MembershipView view = engine.rebuild();
  EXPECT_STREQ(engine.last_path(), "lloyd");
  EXPECT_EQ(view.epoch, 1u);
  EXPECT_EQ(view.k, 3u);
  ASSERT_EQ(view.cluster_of.size(), 30u);
  for (std::size_t p = 3; p < 30; ++p) {
    EXPECT_EQ(view.cluster_of[p], view.cluster_of[p % 3]);
  }
}

TEST(StreamingClusterEngine, MiniBatchPathAboveThreshold) {
  StreamingClusterConfig config = small_config();
  config.lloyd_threshold = 20;  // 40 parties > 20 => mini-batch
  StreamingClusterEngine engine(config);
  for (std::size_t p = 0; p < 40; ++p) {
    engine.submit(p, mode_point(p % 3, 6));
  }
  const MembershipView view = engine.rebuild();
  EXPECT_STREQ(engine.last_path(), "minibatch");
  EXPECT_EQ(view.k, 3u);
  ASSERT_EQ(view.cluster_of.size(), 40u);
  // Mini-batch must recover the same obvious mode structure.
  for (std::size_t p = 3; p < 40; ++p) {
    EXPECT_EQ(view.cluster_of[p], view.cluster_of[p % 3]);
  }
}

TEST(StreamingClusterEngine, ElbowFindsPlantedKOnBothPaths) {
  // Every k >= 3 splits the three exact modes with a DBI of rounding
  // noise, so only the elbow's tie rule (smallest k within noise of the
  // minimum) makes k = 3 hold on every seed, not just lucky ones.
  const std::size_t thresholds[] = {100, 10};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const std::size_t threshold : thresholds) {
      StreamingClusterConfig config = small_config();
      config.k_override = 0;  // engage the elbow
      config.k_min = 2;
      config.k_max = 6;
      config.lloyd_threshold = threshold;
      config.elbow_sample = 48;
      config.seed = seed;
      StreamingClusterEngine engine(config);
      for (std::size_t p = 0; p < 60; ++p) {
        engine.submit(p, mode_point(p % 3, 8));
      }
      const MembershipView view = engine.rebuild();
      EXPECT_EQ(view.k, 3u) << "path=" << engine.last_path()
                            << " threshold=" << threshold << " seed=" << seed;
    }
  }
}

TEST(StreamingClusterEngine, LateJoinerAssignedIncrementally) {
  StreamingClusterConfig config = small_config();
  StreamingClusterEngine engine(config);
  for (std::size_t p = 0; p < 30; ++p) {
    engine.submit(p, mode_point(p % 3, 6));
  }
  const MembershipView before = engine.rebuild();
  ASSERT_EQ(before.epoch, 1u);

  // A brand-new party lands near mode 1: it must be assigned to mode
  // 1's cluster immediately, without a re-clustering epoch.
  EXPECT_TRUE(engine.submit(30, mode_point(1, 6, 0.01)));
  const MembershipView after = engine.view();
  EXPECT_EQ(after.epoch, 1u);
  ASSERT_EQ(after.cluster_of.size(), 31u);
  EXPECT_EQ(after.cluster_of[30], before.cluster_of[1]);
  EXPECT_EQ(engine.parties(), 31u);
}

TEST(StreamingClusterEngine, ResubmissionUpdatesInPlace) {
  StreamingClusterEngine engine(small_config());
  for (std::size_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(engine.submit(p, mode_point(p % 3, 6)));
  }
  // Re-submissions must not inflate the party count.
  for (std::size_t p = 0; p < 10; ++p) {
    EXPECT_FALSE(engine.submit(p, mode_point(p % 3, 6, 0.02)));
  }
  EXPECT_EQ(engine.parties(), 10u);
  const MembershipView view = engine.rebuild();
  EXPECT_EQ(view.cluster_of.size(), 10u);
}

TEST(StreamingClusterEngine, ConcurrentSubmissions) {
  StreamingClusterEngine engine(small_config());
  const std::size_t per_thread = 250;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&engine, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::size_t p = t * per_thread + i;
        engine.submit(p, mode_point(p % 3, 6));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(engine.parties(), 1000u);
  const MembershipView view = engine.rebuild();
  ASSERT_EQ(view.cluster_of.size(), 1000u);
  for (std::size_t p = 3; p < 1000; ++p) {
    EXPECT_EQ(view.cluster_of[p], view.cluster_of[p % 3]);
  }

  // Concurrent re-submissions against the live epoch (the drift path).
  std::vector<std::thread> refreshers;
  for (std::size_t t = 0; t < 4; ++t) {
    refreshers.emplace_back([&engine, t] {
      for (std::size_t i = 0; i < per_thread; ++i) {
        const std::size_t p = t * per_thread + i;
        engine.submit(p, mode_point(p % 3, 6, 0.01));
      }
    });
  }
  for (auto& r : refreshers) r.join();
  EXPECT_EQ(engine.parties(), 1000u);
}

/// One rebuild over `points` submitted in `order` by `threads`
/// threads, each taking every threads-th entry of the order; the
/// rebuild must take `path`.
MembershipView striped_rebuild(const StreamingClusterConfig& config,
                               const std::vector<Point>& points,
                               const std::vector<std::size_t>& order,
                               std::size_t threads, const char* path) {
  StreamingClusterEngine engine(config);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < order.size(); i += threads) {
        engine.submit(order[i], points[order[i]]);
      }
    });
  }
  for (auto& w : workers) w.join();
  MembershipView view = engine.rebuild();
  EXPECT_STREQ(engine.last_path(), path);
  return view;
}

/// Submits `points` in party-id order from one thread, then in three
/// shuffled orders from 1, 4 and 8 threads; every rebuild must take
/// `path` and equal the first bit for bit.
void expect_order_independent(const StreamingClusterConfig& config,
                              const std::vector<Point>& points,
                              const char* path) {
  const std::size_t n = points.size();
  std::vector<std::size_t> order(n);
  for (std::size_t p = 0; p < n; ++p) order[p] = p;
  const MembershipView reference =
      striped_rebuild(config, points, order, 1, path);
  ASSERT_EQ(reference.cluster_of.size(), n);
  for (const std::size_t c : reference.cluster_of) {
    ASSERT_LT(c, reference.k) << "n=" << n;
  }

  flips::common::Rng shuffle_rng(31);
  for (const std::size_t threads : {1u, 4u, 8u}) {
    shuffle_rng.shuffle(order);
    const MembershipView view =
        striped_rebuild(config, points, order, threads, path);
    EXPECT_EQ(view.epoch, reference.epoch);
    EXPECT_EQ(view.k, reference.k) << "n=" << n << " threads=" << threads;
    EXPECT_EQ(view.cluster_of, reference.cluster_of)
        << "n=" << n << " threads=" << threads;
    // Bit for bit: operator== on doubles, no tolerance.
    EXPECT_EQ(view.centroids, reference.centroids)
        << "n=" << n << " threads=" << threads;
  }
}

TEST(StreamingClusterEngine, RebuildIndependentOfSubmissionOrder) {
  // Random Dirichlet points have no planted modes, so k-means++
  // seeding and the elbow would land differently for a different
  // point order; the rebuild must not see the order at all.
  const std::size_t n = 400;
  flips::common::Rng rng(23);
  std::vector<Point> points;
  for (std::size_t p = 0; p < n; ++p) points.push_back(rng.dirichlet(1.0, 6));

  for (const std::size_t threshold : {n, n / 2}) {
    StreamingClusterConfig config = small_config();
    config.k_override = 0;  // the elbow sees the order too
    config.k_min = 2;
    config.k_max = 6;
    config.elbow_repeats = 2;
    config.elbow_sample = 128;
    config.lloyd_threshold = threshold;
    expect_order_independent(config, points,
                             threshold >= n ? "lloyd" : "minibatch");
  }

  // Default config at 40,000 parties, more than any bounded buffer of
  // 8 x 4096 points would hold: every party stays resident, so the
  // view still depends on the submitted set alone.
  const std::size_t large = 40'000;
  std::vector<Point> many;
  many.reserve(large);
  for (std::size_t p = 0; p < large; ++p) {
    many.push_back(rng.dirichlet(1.0, 6));
  }
  StreamingClusterConfig config;
  config.k_override = 4;
  expect_order_independent(config, many, "minibatch");
}

TEST(DriftMonitor, WarmupThenTriggerOnShift) {
  DriftMonitorConfig config;
  config.ema = 0.5;
  config.trigger_ratio = 1.5;
  config.min_shift = 0.05;
  config.min_observations = 3;
  DriftMonitor monitor(config);
  monitor.reset({0.1, 0.1});

  // Residuals at baseline never trigger, no matter how many.
  for (int i = 0; i < 50; ++i) monitor.observe(0, 0.1);
  EXPECT_FALSE(monitor.triggered());

  // A real shift on cluster 1 stays quiet through warm-up…
  monitor.observe(1, 1.0);
  monitor.observe(1, 1.0);
  EXPECT_FALSE(monitor.triggered());
  // …and flags once min_observations is reached with the EMA high.
  monitor.observe(1, 1.0);
  EXPECT_TRUE(monitor.triggered());
  EXPECT_GT(monitor.shift(1), monitor.baseline(1));

  // Sticky until the next epoch resets it.
  monitor.reset({0.1, 0.1});
  EXPECT_FALSE(monitor.triggered());
}

TEST(StreamingClusterEngine, DriftTriggersReclusterEndToEnd) {
  StreamingClusterConfig config = small_config();
  config.drift.min_observations = 3;
  StreamingClusterEngine engine(config);
  for (std::size_t p = 0; p < 30; ++p) {
    engine.submit(p, mode_point(p % 3, 6));
  }
  engine.rebuild();

  // Stable re-submissions: no drift flag.
  for (std::size_t p = 0; p < 30; ++p) {
    engine.submit(p, mode_point(p % 3, 6));
  }
  EXPECT_FALSE(engine.drift_detected());
  EXPECT_FALSE(engine.maybe_rebuild());
  EXPECT_EQ(engine.epoch(), 1u);

  // Mode rotation (the drift bench's scenario): residuals explode,
  // the monitor flags, maybe_rebuild starts epoch 2 and the new
  // epoch's assignments follow the rotated modes.
  for (std::size_t p = 0; p < 30; ++p) {
    engine.submit(p, mode_point((p + 1) % 3, 6));
  }
  EXPECT_TRUE(engine.drift_detected());
  EXPECT_TRUE(engine.maybe_rebuild());
  EXPECT_EQ(engine.epoch(), 2u);
  EXPECT_FALSE(engine.drift_detected());  // fresh epoch, fresh baseline
  const MembershipView view = engine.view();
  for (std::size_t p = 3; p < 30; ++p) {
    EXPECT_EQ(view.cluster_of[p], view.cluster_of[p % 3]);
  }
}

}  // namespace
