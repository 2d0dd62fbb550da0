// Pins the benchmark's own statistics (src/stats.h).
#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace {

using perfbench::tail_point;

flips::fl::RoundRecord round_of(double accuracy, std::uint64_t up,
                                std::uint64_t down, double time_s) {
  flips::fl::RoundRecord r;
  r.balanced_accuracy = accuracy;
  r.upload_bytes = up;
  r.download_bytes = down;
  r.round_time_s = time_s;
  return r;
}

TEST(TailPoint, PicksHighestPercentileWithTenBeyond) {
  EXPECT_EQ(tail_point(10000).percentile, 99.9);
  EXPECT_EQ(tail_point(10000).beyond, 10u);
  EXPECT_EQ(tail_point(1000).percentile, 99.0);
  EXPECT_EQ(tail_point(1000).rank, 990u);
  // 999 samples: p99's nearest rank is 990, leaving only 9 above.
  EXPECT_EQ(tail_point(999).percentile, 98.0);
  EXPECT_EQ(tail_point(999).beyond, 19u);
  EXPECT_EQ(tail_point(200).percentile, 95.0);
  EXPECT_EQ(tail_point(20).percentile, 50.0);
  EXPECT_EQ(tail_point(20).beyond, 10u);
  EXPECT_EQ(tail_point(19).rank, 0u);
  EXPECT_EQ(tail_point(0).rank, 0u);
}

TEST(TailPoint, ValueIsTheNearestRankSample) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);
  const auto tail = perfbench::tail_value(v);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->first.percentile, 99.0);
  EXPECT_EQ(tail->second, 990.0);
  EXPECT_FALSE(perfbench::tail_value(std::vector<double>(5, 1.0)));
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(perfbench::median({}), 0.0);
}

TEST(Target, FirstRoundAtOrAboveTarget) {
  const std::vector<double> curve{0.1, 0.5, 0.7, 0.69, 0.8};
  EXPECT_EQ(perfbench::first_round_at_or_above(curve, 0.7), 3u);
  EXPECT_EQ(perfbench::first_round_at_or_above(curve, 0.75), 5u);
  EXPECT_EQ(perfbench::first_round_at_or_above(curve, 0.05), 1u);
  EXPECT_FALSE(perfbench::first_round_at_or_above(curve, 0.9));
  EXPECT_FALSE(perfbench::first_round_at_or_above({}, 0.1));
}

TEST(Target, MeanCurveAveragesRoundsAndTruncates) {
  const std::vector<std::vector<flips::fl::RoundRecord>> histories{
      {round_of(0.2, 0, 0, 0), round_of(0.6, 0, 0, 0),
       round_of(0.9, 0, 0, 0)},
      {round_of(0.4, 0, 0, 0), round_of(0.8, 0, 0, 0)}};
  const auto curve = perfbench::mean_accuracy_curve(histories);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0], 0.3);
  EXPECT_DOUBLE_EQ(curve[1], 0.7);
  // Neither session alone reaches 0.7 at round 2 and 1; the mean does.
  EXPECT_EQ(perfbench::first_round_at_or_above(curve, 0.7), 2u);
}

TEST(Target, CommunicationSumsUpAndDownThroughTheTargetRound) {
  const std::vector<flips::fl::RoundRecord> h{
      round_of(0.1, 100, 10, 1.5), round_of(0.5, 200, 20, 2.0),
      round_of(0.9, 400, 40, 4.0)};
  EXPECT_EQ(perfbench::bytes_through_round(h, 0), 0u);
  EXPECT_EQ(perfbench::bytes_through_round(h, 2), 330u);
  EXPECT_EQ(perfbench::bytes_through_round(h, 3), 770u);
  EXPECT_EQ(perfbench::bytes_through_round(h, 9), 770u);
  EXPECT_DOUBLE_EQ(perfbench::sim_seconds_through_round(h, 2), 3.5);
}

TEST(FailedFrac, FailuresOverAttempts) {
  EXPECT_EQ(perfbench::failed_frac(10, 0), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::failed_frac(10, 3), 0.3);
  EXPECT_EQ(perfbench::failed_frac(5, 9), 1.0);
  EXPECT_EQ(perfbench::failed_frac(0, 0), 1.0);
}

TEST(Exposition, SumsSamplesMatchingLabels) {
  const std::string text =
      "# TYPE flips_faults_total counter\n"
      "flips_faults_total{event=\"crashed\",tenant=\"a\"} 3\n"
      "flips_faults_total{event=\"retried\",tenant=\"a\"} 2\n"
      "flips_faults_total{event=\"crashed\",tenant=\"b\"} 4\n"
      "flips_faults_total_other 100\n"
      "flips_agg_folds_total 7\n";
  EXPECT_EQ(perfbench::sample_sum(text, "flips_faults_total"), 9.0);
  EXPECT_EQ(perfbench::sample_sum(text, "flips_faults_total",
                                  {{"event", "crashed"}}),
            7.0);
  EXPECT_EQ(perfbench::sample_sum(text, "flips_agg_folds_total"), 7.0);
  EXPECT_EQ(perfbench::sample_sum(text, "missing"), 0.0);
}

TEST(Exposition, BucketQuantileMergesSparseSeriesAndSubtractsBefore) {
  // Two label sets list different non-empty buckets; each carries its
  // cumulative count forward to the other's edges.
  const std::string before =
      "h_bucket{t=\"a\",le=\"1\"} 1\n"
      "h_bucket{t=\"a\",le=\"+Inf\"} 1\n";
  const std::string after =
      "h_bucket{t=\"a\",le=\"1\"} 3\n"
      "h_bucket{t=\"a\",le=\"4\"} 4\n"
      "h_bucket{t=\"a\",le=\"+Inf\"} 4\n"
      "h_bucket{t=\"b\",le=\"2\"} 2\n"
      "h_bucket{t=\"b\",le=\"+Inf\"} 2\n";
  const auto b = perfbench::bucket_counts(before, "h");
  const auto a = perfbench::bucket_counts(after, "h");
  EXPECT_EQ(perfbench::cumulative_at(a, 2.0), 5.0);
  // Five new samples: 2 at <=1, 2 at <=2, 1 at <=4.
  EXPECT_EQ(perfbench::bucket_quantile(b, a, 0.4), 1.0);
  EXPECT_EQ(perfbench::bucket_quantile(b, a, 0.5), 2.0);
  EXPECT_EQ(perfbench::bucket_quantile(b, a, 1.0), 4.0);
  EXPECT_FALSE(perfbench::bucket_quantile(a, a, 0.5));
}

}  // namespace
