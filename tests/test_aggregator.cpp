// Aggregation plane: bit-compatibility with the reference fold, the
// DP weight tallies, the empty round, dimension rejection and arena
// reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "common/rng.h"
#include "fl/aggregator.h"
#include "fl/server_optimizer.h"

namespace {

using flips::fl::Aggregator;
using flips::fl::BufferArena;

std::vector<flips::fl::LocalUpdate> random_updates(std::size_t parties,
                                                   std::size_t dim,
                                                   std::uint64_t seed) {
  flips::common::Rng rng(seed);
  std::vector<flips::fl::LocalUpdate> updates(parties);
  for (auto& u : updates) {
    u.num_samples = rng.uniform_index(200);  // zero-sample case included
    u.delta.resize(dim);
    for (auto& d : u.delta) d = rng.normal(0.0, 1.0);
  }
  return updates;
}

double weight_of(const flips::fl::LocalUpdate& update) {
  return update.num_samples > 0 ? static_cast<double>(update.num_samples)
                                : 1.0;
}

/// The ordered fold must reproduce aggregate_updates EXACTLY: both walk
/// parties in cohort order with a left-to-right chain and divide by the
/// same total weight.
TEST(Aggregator, BitIdenticalWithReferenceFold) {
  for (const std::size_t parties : {1u, 7u, 8u, 9u, 23u, 64u}) {
    for (const std::size_t dim : {1u, 5u, 8u, 17u, 1000u}) {
      const auto updates = random_updates(parties, dim, 31 * parties + dim);
      const auto reference = flips::fl::aggregate_updates(updates);

      Aggregator aggregator;
      aggregator.begin_round(dim);
      for (const auto& update : updates) {
        aggregator.add(weight_of(update), update.delta);
      }
      const auto& mean = aggregator.finalize();
      ASSERT_EQ(mean.size(), reference.size());
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_EQ(mean[i], reference[i])
            << "parties=" << parties << " dim=" << dim << " i=" << i;
      }
      EXPECT_EQ(aggregator.contributions(), parties);
    }
  }
}

/// total_weight() and max_weight() calibrate the DP noise: they must
/// equal the add-order sum and the maximum of the added weights, and
/// restart with every round.
TEST(Aggregator, WeightsMatchReferenceSums) {
  const std::size_t dim = 9;
  Aggregator aggregator;
  for (const std::size_t parties : {1u, 13u, 40u}) {
    const auto updates = random_updates(parties, dim, 5 * parties);
    double total = 0.0;
    double max = 0.0;
    aggregator.begin_round(dim);
    for (const auto& update : updates) {
      const double w = weight_of(update) * 0.37;
      aggregator.add(w, update.delta);
      total += w;
      max = std::max(max, w);
    }
    EXPECT_EQ(aggregator.total_weight(), total) << "parties=" << parties;
    EXPECT_EQ(aggregator.max_weight(), max) << "parties=" << parties;
    (void)aggregator.finalize();
    EXPECT_EQ(aggregator.total_weight(), total);
  }
  aggregator.begin_round(dim);
  EXPECT_EQ(aggregator.total_weight(), 0.0);
  EXPECT_EQ(aggregator.max_weight(), 0.0);
}

TEST(Aggregator, EmptyRoundYieldsEmpty) {
  Aggregator aggregator;
  aggregator.begin_round(10);
  EXPECT_TRUE(aggregator.finalize().empty());
  EXPECT_EQ(aggregator.contributions(), 0u);

  // A round after a productive one starts from scratch.
  const std::vector<double> delta(10, 1.0);
  aggregator.begin_round(10);
  aggregator.add(2.0, delta);
  EXPECT_EQ(aggregator.finalize(), delta);
  aggregator.begin_round(10);
  EXPECT_TRUE(aggregator.finalize().empty());
}

TEST(Aggregator, RejectsMismatchedDimension) {
  Aggregator aggregator;
  aggregator.begin_round(8);
  const std::vector<double> short_delta(5, 1.0);
  EXPECT_THROW(aggregator.add(1.0, short_delta), std::invalid_argument);
  const std::vector<double> long_delta(9, 1.0);
  EXPECT_THROW(aggregator.add(1.0, long_delta), std::invalid_argument);
  EXPECT_EQ(aggregator.contributions(), 0u);
}

TEST(BufferArena, LeaseReleaseRecyclesBuffers) {
  BufferArena arena;
  EXPECT_EQ(arena.pooled(), 0u);
  std::vector<double> a = arena.lease(100);
  EXPECT_EQ(a.size(), 100u);
  const double* data = a.data();
  arena.release(std::move(a));
  EXPECT_EQ(arena.pooled(), 1u);
  // Same capacity comes back for a same-size lease: no new allocation.
  std::vector<double> b = arena.lease(100);
  EXPECT_EQ(b.data(), data);
  EXPECT_EQ(arena.pooled(), 0u);
  arena.release(std::move(b));

  // Steady-state cycling never grows the pool beyond the peak.
  for (int round = 0; round < 10; ++round) {
    std::vector<std::vector<double>> leases;
    for (int k = 0; k < 4; ++k) leases.push_back(arena.lease(64));
    for (auto& lease : leases) arena.release(std::move(lease));
  }
  EXPECT_EQ(arena.pooled(), 4u);
}

}  // namespace
