// Selector unit behaviour: cohort invariants, FLIPS cluster coverage
// and within-cluster balance, over-provisioning, and factory wiring.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "selection/baselines.h"
#include "selection/factory.h"
#include "selection/flips_selector.h"
#include "selection/random_selector.h"

namespace {

using flips::fl::PartyFeedback;
using flips::select::SelectorContext;
using flips::select::SelectorKind;

std::vector<PartyFeedback> all_respond(
    const std::vector<std::size_t>& cohort) {
  std::vector<PartyFeedback> feedback(cohort.size());
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    feedback[i].party_id = cohort[i];
    feedback[i].responded = true;
    feedback[i].num_samples = 50;
    feedback[i].mean_loss = 1.0;
    feedback[i].loss_rms = 1.1;
    feedback[i].delta.assign(16, 0.01 * static_cast<double>(cohort[i] + 1));
  }
  return feedback;
}

SelectorContext make_context(std::size_t n, std::size_t k) {
  SelectorContext ctx;
  ctx.num_parties = n;
  ctx.seed = 17;
  ctx.cluster_of.resize(n);
  for (std::size_t p = 0; p < n; ++p) ctx.cluster_of[p] = p % k;
  ctx.num_clusters = k;
  ctx.latencies.assign(n, 1.0);
  for (std::size_t p = 0; p < n; ++p) {
    ctx.latencies[p] = 1.0 + static_cast<double>(p % 4);
  }
  ctx.label_distributions.assign(n, {1.0, 2.0, 3.0});
  return ctx;
}

TEST(AllSelectors, CohortsAreValidAndDuplicateFree) {
  const auto ctx = make_context(40, 8);
  for (const auto kind :
       {SelectorKind::kRandom, SelectorKind::kFlips, SelectorKind::kOort,
        SelectorKind::kGradClus, SelectorKind::kTifl,
        SelectorKind::kPowerOfChoice, SelectorKind::kFedCbs}) {
    auto selector = flips::select::make_selector(kind, ctx);
    for (std::size_t round = 1; round <= 10; ++round) {
      const auto cohort = selector->select(round, 8);
      EXPECT_GE(cohort.size(), 8u) << flips::select::to_string(kind);
      std::set<std::size_t> unique(cohort.begin(), cohort.end());
      EXPECT_EQ(unique.size(), cohort.size())
          << "duplicates from " << flips::select::to_string(kind);
      for (const auto p : cohort) {
        EXPECT_LT(p, 40u);
      }
      selector->report_round(round, all_respond(cohort));
    }
  }
}

TEST(RandomSelector, ExactCohortSizeAndEventualCoverage) {
  flips::select::RandomSelector selector(20, 3);
  std::set<std::size_t> seen;
  for (std::size_t round = 1; round <= 30; ++round) {
    const auto cohort = selector.select(round, 5);
    EXPECT_EQ(cohort.size(), 5u);
    seen.insert(cohort.begin(), cohort.end());
  }
  EXPECT_EQ(seen.size(), 20u);
}

TEST(FlipsSelector, EveryClusterRepresentedEachRound) {
  // 4 clusters, Nr = 8 => every cluster must contribute exactly 2.
  std::vector<std::size_t> cluster_of(24);
  for (std::size_t p = 0; p < 24; ++p) cluster_of[p] = p % 4;
  flips::select::FlipsSelector selector(cluster_of, 4, {});
  for (std::size_t round = 1; round <= 12; ++round) {
    const auto cohort = selector.select(round, 8);
    ASSERT_EQ(cohort.size(), 8u);
    std::vector<std::size_t> per_cluster(4, 0);
    for (const auto p : cohort) ++per_cluster[cluster_of[p]];
    for (const auto count : per_cluster) {
      EXPECT_EQ(count, 2u);
    }
    selector.report_round(round, all_respond(cohort));
  }
}

TEST(FlipsSelector, WithinClusterPicksAreBalanced) {
  std::vector<std::size_t> cluster_of(30);
  for (std::size_t p = 0; p < 30; ++p) cluster_of[p] = p % 3;
  flips::select::FlipsSelector selector(cluster_of, 3, {});
  std::vector<std::size_t> counts(30, 0);
  for (std::size_t round = 1; round <= 40; ++round) {
    for (const auto p : selector.select(round, 6)) ++counts[p];
  }
  // 40 rounds x 2 picks per 10-member cluster => everyone picked 8x.
  for (const auto count : counts) {
    EXPECT_EQ(count, 8u);
  }
}

TEST(FlipsSelector, SmallClustersGetPickedMoreOften) {
  // Cluster 0 has 2 members, cluster 1 has 18: equal cluster slots
  // means the small cluster's parties are selected far more often.
  std::vector<std::size_t> cluster_of(20, 1);
  cluster_of[0] = 0;
  cluster_of[1] = 0;
  flips::select::FlipsSelector selector(cluster_of, 2, {});
  std::vector<std::size_t> counts(20, 0);
  for (std::size_t round = 1; round <= 30; ++round) {
    for (const auto p : selector.select(round, 4)) ++counts[p];
  }
  EXPECT_GT(counts[0], 2 * counts[5]);
}

TEST(FlipsSelector, OverprovisionsAfterStragglers) {
  std::vector<std::size_t> cluster_of(40);
  for (std::size_t p = 0; p < 40; ++p) cluster_of[p] = p % 4;
  flips::select::FlipsSelectorConfig config;
  config.overprovision = true;
  flips::select::FlipsSelector selector(cluster_of, 4, config);

  auto cohort = selector.select(1, 8);
  EXPECT_EQ(cohort.size(), 8u);
  // Report 25% straggling for a few rounds.
  for (std::size_t round = 1; round <= 5; ++round) {
    auto feedback = all_respond(cohort);
    for (std::size_t i = 0; i < feedback.size(); i += 4) {
      feedback[i].responded = false;
    }
    selector.report_round(round, feedback);
    cohort = selector.select(round + 1, 8);
  }
  EXPECT_GT(selector.observed_straggle_rate(), 0.1);
  EXPECT_GT(cohort.size(), 8u);

  flips::select::FlipsSelectorConfig off = config;
  off.overprovision = false;
  flips::select::FlipsSelector plain(cluster_of, 4, off);
  auto plain_cohort = plain.select(1, 8);
  for (std::size_t round = 1; round <= 5; ++round) {
    auto feedback = all_respond(plain_cohort);
    for (std::size_t i = 0; i < feedback.size(); i += 4) {
      feedback[i].responded = false;
    }
    plain.report_round(round, feedback);
    plain_cohort = plain.select(round + 1, 8);
  }
  EXPECT_EQ(plain_cohort.size(), 8u);
}

TEST(OortSelector, ConcentratesOnHighLossParties) {
  const std::size_t n = 20;
  flips::select::OortSelector selector(n, {}, 100, 5);
  // Parties 0-3 report much higher loss than the rest.
  std::vector<std::size_t> counts(n, 0);
  for (std::size_t round = 1; round <= 60; ++round) {
    const auto cohort = selector.select(round, 5);
    for (const auto p : cohort) ++counts[p];
    std::vector<PartyFeedback> feedback = all_respond(cohort);
    for (auto& fb : feedback) {
      fb.loss_rms = fb.party_id < 4 ? 5.0 : 0.2;
    }
    selector.report_round(round, feedback);
  }
  double high = 0.0;
  double low = 0.0;
  for (std::size_t p = 0; p < n; ++p) {
    (p < 4 ? high : low) += static_cast<double>(counts[p]);
  }
  // Per-party average picks must favour the high-loss group clearly.
  EXPECT_GT(high / 4.0, 1.5 * low / 16.0);
}

TEST(Factory, ToStringCoversAllKinds) {
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kRandom), "random");
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kFlips), "flips");
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kOort), "oort");
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kGradClus),
               "gradclus");
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kTifl), "tifl");
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kPowerOfChoice),
               "pow-d");
  EXPECT_STREQ(flips::select::to_string(SelectorKind::kFedCbs), "fed-cbs");
}

TEST(Factory, FlipsWithoutClustersDegradesGracefully) {
  SelectorContext ctx;
  ctx.num_parties = 10;
  ctx.seed = 2;
  auto selector = flips::select::make_selector(SelectorKind::kFlips, ctx);
  const auto cohort = selector->select(1, 4);
  EXPECT_EQ(cohort.size(), 4u);
}

TEST(Factory, StringRegistryRoundTripsEveryName) {
  const auto& names = flips::select::selector_names();
  EXPECT_EQ(names.size(), 7u);
  SelectorContext ctx;
  ctx.num_parties = 10;
  ctx.seed = 2;
  for (const std::string_view name : names) {
    const auto kind = flips::select::selector_kind_from_name(name);
    EXPECT_EQ(flips::select::to_string(kind), name);
    auto selector = flips::select::make_selector(name, ctx);
    ASSERT_NE(selector, nullptr);
    EXPECT_EQ(selector->name(), name);
  }
}

TEST(Factory, UnknownNameFailsFastListingRegisteredNames) {
  SelectorContext ctx;
  ctx.num_parties = 4;
  try {
    (void)flips::select::make_selector("best-selector", ctx);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("best-selector"), std::string::npos);
    // The error enumerates every registered name.
    for (const std::string_view name : flips::select::selector_names()) {
      EXPECT_NE(message.find(name), std::string::npos) << name;
    }
  }
}

}  // namespace
