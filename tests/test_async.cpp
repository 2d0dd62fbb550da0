// Event-driven async federation (fl/session.h advance()):
// staleness-weight math, bounded-staleness drop accounting, arrival
// ordering, determinism across thread counts under a fixed arrival
// seed.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"
#include "fl/session.h"
#include "selection/factory.h"

namespace {

using flips::fl::ArrivalOutcome;
using flips::fl::ArrivalRecord;
using flips::fl::FederationMode;
using flips::fl::FederationSession;
using flips::fl::FlJobConfig;
using flips::fl::FlJobResult;
using flips::fl::Party;
using flips::fl::PartyProfile;
using flips::fl::RoundRecord;

struct TinyFederation {
  std::vector<Party> parties;
  flips::data::Dataset test;
  flips::select::SelectorContext context;
};

/// Tiny ECG federation with a heterogeneous fleet (speed factors 1x /
/// 2x / 4x / 8x round-robin) so async arrival order interleaves server
/// steps and slow parties actually go stale.
TinyFederation build_tiny(std::size_t num_parties, std::uint64_t seed) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = num_parties;
  dc.samples_per_party = 40;
  dc.alpha = 0.3;
  dc.test_per_class = 40;
  dc.seed = seed;
  const auto data = flips::data::build_federated_data(dc);

  TinyFederation fed;
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    PartyProfile profile;
    profile.speed_factor = std::pow(2.0, static_cast<double>(p % 4));
    fed.parties.emplace_back(p, data.party_data[p], profile);
  }
  fed.test = data.global_test;

  std::vector<flips::cluster::Point> points;
  for (const auto& ld : data.label_distributions) {
    auto point = flips::common::normalized(ld);
    for (auto& v : point) v = std::sqrt(v);
    points.push_back(std::move(point));
  }
  flips::cluster::KMeansConfig kc;
  kc.k = 4;
  kc.restarts = 3;
  flips::common::Rng rng(seed ^ 0xC1);
  fed.context.num_parties = num_parties;
  fed.context.seed = seed ^ 0x5E1E;
  fed.context.cluster_of =
      flips::cluster::kmeans(points, kc, rng).assignments;
  fed.context.num_clusters = kc.k;
  return fed;
}

FlJobConfig async_config(std::size_t steps, std::uint64_t seed) {
  FlJobConfig config;
  config.mode = FederationMode::kAsync;
  config.rounds = steps;
  config.parties_per_round = 6;
  config.async.buffer_k = 2;
  config.async.max_staleness = 2;
  config.local.epochs = 2;
  config.local.batch_size = 16;
  config.local.sgd.learning_rate = 0.05;
  config.server.optimizer = flips::fl::ServerOpt::kFedYogi;
  config.server.learning_rate = 0.05;
  config.eval_every = 2;
  config.seed = seed;
  return config;
}

flips::ml::Sequential tiny_model(std::uint64_t seed) {
  flips::common::Rng rng(seed ^ 0x30DE);
  return flips::ml::ModelFactory::mlp(32, 8, 5, rng);
}

std::unique_ptr<flips::fl::ParticipantSelector> tiny_selector(
    const TinyFederation& fed) {
  return flips::select::make_selector(flips::select::SelectorKind::kFlips,
                                      fed.context);
}

/// Records every arrival event for the ordering / accounting checks.
struct ArrivalTap final : flips::fl::RoundObserver {
  std::vector<ArrivalRecord> arrivals;
  void on_arrival(std::size_t round, const ArrivalRecord& arrival) override {
    (void)round;
    arrivals.push_back(arrival);
  }
};

TEST(AsyncSession, StalenessDiscountMath) {
  EXPECT_DOUBLE_EQ(flips::fl::staleness_discount(0), 1.0);
  EXPECT_DOUBLE_EQ(flips::fl::staleness_discount(3), 0.5);
  EXPECT_DOUBLE_EQ(flips::fl::staleness_discount(8), 1.0 / 3.0);
  for (std::size_t s = 1; s < 16; ++s) {
    EXPECT_LT(flips::fl::staleness_discount(s),
              flips::fl::staleness_discount(s - 1));
    EXPECT_GT(flips::fl::staleness_discount(s), 0.0);
  }
}

TEST(AsyncSession, RejectsRoundSynchronousConfigs) {
  const auto fed = build_tiny(10, 7);
  auto scaffold = async_config(4, 7);
  scaffold.local.algo = flips::fl::ClientAlgo::kScaffold;
  EXPECT_THROW(FederationSession(scaffold, fed.parties, fed.test,
                                 tiny_model(7), tiny_selector(fed)),
               std::invalid_argument);

  // A deadline has no round to bound in async mode — fail fast instead
  // of silently ignoring it (a zero deadline means "unbounded" and is
  // still accepted).
  auto deadline = async_config(4, 7);
  deadline.stragglers.mode = flips::fl::StragglerMode::kDeadline;
  deadline.stragglers.deadline_s = 2.0;
  EXPECT_THROW(FederationSession(deadline, fed.parties, fed.test,
                                 tiny_model(7), tiny_selector(fed)),
               std::invalid_argument);
  deadline.stragglers.deadline_s = 0.0;
  EXPECT_NO_THROW(FederationSession(deadline, fed.parties, fed.test,
                                    tiny_model(7), tiny_selector(fed)));

  // advance() is the one stepping entry point, sync or async.
  FederationSession session(async_config(4, 7), fed.parties, fed.test,
                            tiny_model(7), tiny_selector(fed));
  EXPECT_NO_THROW(session.advance());
}

/// Arrivals pop in nondecreasing simulated time; per-step accounting
/// ties out against the arrival tap (selected = arrivals seen,
/// responded = folds, dropped_stale = staleness-cutoff discards), and
/// folded weights carry the staleness discount.
TEST(AsyncSession, ArrivalOrderingAndDropAccounting) {
  const auto fed = build_tiny(12, 19);
  auto config = async_config(12, 19);
  auto tap = std::make_shared<ArrivalTap>();

  FederationSession session(config, fed.parties, fed.test, tiny_model(19),
                            tiny_selector(fed));
  session.add_observer(tap);
  std::size_t selected_sum = 0;
  std::size_t responded_sum = 0;
  std::size_t dropped_sum = 0;
  while (!session.done()) {
    const RoundRecord& record = session.advance();
    selected_sum += record.selected;
    responded_sum += record.responded;
    dropped_sum += record.dropped_stale;
  }

  EXPECT_EQ(tap->arrivals.size(), selected_sum);
  std::size_t folded = 0;
  std::size_t dropped = 0;
  double last_time = 0.0;
  for (const ArrivalRecord& a : tap->arrivals) {
    EXPECT_GE(a.time_s, last_time);
    last_time = a.time_s;
    if (a.outcome == ArrivalOutcome::kFolded) {
      ++folded;
      EXPECT_LE(a.staleness, config.async.max_staleness);
      // Sample-count base weight times the staleness discount.
      const double base = static_cast<double>(
          fed.parties[a.party_id].size());
      EXPECT_DOUBLE_EQ(a.weight,
                       base * flips::fl::staleness_discount(a.staleness));
    } else if (a.outcome == ArrivalOutcome::kDroppedStale) {
      ++dropped;
      EXPECT_GT(a.staleness, config.async.max_staleness);
    }
  }
  EXPECT_EQ(folded, responded_sum);
  EXPECT_EQ(dropped, dropped_sum);

  // The heterogeneous fleet + max_staleness=2 cutoff must actually
  // exercise the drop path; a generous cutoff must not.
  EXPECT_GT(dropped_sum, 0u);

  auto lenient = async_config(12, 19);
  lenient.async.max_staleness = 1000;
  FederationSession relaxed(lenient, fed.parties, fed.test, tiny_model(19),
                            tiny_selector(fed));
  std::size_t relaxed_drops = 0;
  while (!relaxed.done()) {
    relaxed_drops += relaxed.advance().dropped_stale;
  }
  EXPECT_EQ(relaxed_drops, 0u);
}

/// Under DP the fold weight is the staleness discount on a UNIT base
/// (no sample-count weighting, matching sync DP-FedAvg): the noise
/// sigma is calibrated on the weighted-mean sensitivity
/// clip * max(w)/sum(w), which assumes exactly these weights. Also
/// pins that the DP async path runs end to end and stays deterministic
/// across thread counts.
TEST(AsyncSession, DpFoldsUnitBaseWeights) {
  const auto fed = build_tiny(12, 23);
  auto config = async_config(10, 23);
  config.privacy.mechanism = flips::fl::PrivacyMechanism::kDp;
  config.privacy.dp.clip_norm = 1.0;
  config.privacy.dp.noise_multiplier = 0.5;

  FlJobResult results[2];
  const std::size_t threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    auto c = config;
    c.threads = threads[i];
    auto tap = std::make_shared<ArrivalTap>();
    FederationSession session(c, fed.parties, fed.test, tiny_model(23),
                              tiny_selector(fed));
    session.add_observer(tap);
    while (!session.done()) session.advance();
    results[i] = session.result();

    std::size_t folded = 0;
    for (const ArrivalRecord& a : tap->arrivals) {
      if (a.outcome != ArrivalOutcome::kFolded) continue;
      ++folded;
      EXPECT_DOUBLE_EQ(a.weight,
                       flips::fl::staleness_discount(a.staleness));
      EXPECT_LE(a.weight, 1.0);
    }
    EXPECT_GT(folded, 0u);
  }
  EXPECT_EQ(results[0].final_parameters, results[1].final_parameters);
  EXPECT_GT(results[0].epsilon_spent, 0.0);
}

/// Async results are a pure function of the seed: bit-identical across
/// worker thread counts (dispatch batches train in parallel, but the
/// event loop folds in deterministic arrival order).
TEST(AsyncSession, DeterministicAcrossThreadCounts) {
  const auto fed = build_tiny(12, 33);
  for (const auto codec :
       {flips::net::Codec::kDense64, flips::net::Codec::kQuant8}) {
    auto config = async_config(10, 33);
    config.codec.codec = codec;
    config.target_accuracy = 0.5;

    FlJobResult results[2];
    const std::size_t threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      auto c = config;
      c.threads = threads[i];
      FederationSession session(c, fed.parties, fed.test, tiny_model(33),
                                tiny_selector(fed));
      while (!session.done()) session.advance();
      results[i] = session.result();
    }

    EXPECT_EQ(results[0].final_parameters, results[1].final_parameters);
    EXPECT_EQ(results[0].peak_accuracy, results[1].peak_accuracy);
    EXPECT_EQ(results[0].total_bytes, results[1].total_bytes);
    EXPECT_EQ(results[0].total_time_s, results[1].total_time_s);
    EXPECT_EQ(results[0].rounds_to_target, results[1].rounds_to_target);
    ASSERT_EQ(results[0].history.size(), results[1].history.size());
    for (std::size_t r = 0; r < results[0].history.size(); ++r) {
      const RoundRecord& a = results[0].history[r];
      const RoundRecord& b = results[1].history[r];
      EXPECT_EQ(a.balanced_accuracy, b.balanced_accuracy);
      EXPECT_EQ(a.round_time_s, b.round_time_s);
      EXPECT_EQ(a.selected, b.selected);
      EXPECT_EQ(a.responded, b.responded);
      EXPECT_EQ(a.dropped_stale, b.dropped_stale);
      EXPECT_EQ(a.upload_bytes, b.upload_bytes);
      EXPECT_EQ(a.download_bytes, b.download_bytes);
    }
  }
}

}  // namespace
