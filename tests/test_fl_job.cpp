// FL job loop: FedProx single-round math against hand-computed values,
// straggler/privacy/fairness accounting, and the headline end-to-end
// property — FLIPS selection beats random on a skewed federation.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"
#include "fl/session.h"
#include "selection/factory.h"

namespace {

using flips::fl::FlJobConfig;
using flips::fl::FlJobResult;
using flips::fl::Party;
using flips::fl::PartyProfile;
using flips::select::SelectorKind;

/// Steps a session to completion and returns its result.
FlJobResult run_job(const FlJobConfig& config,
                    const std::vector<Party>& parties,
                    const flips::data::Dataset& test,
                    flips::ml::Sequential model, SelectorKind kind,
                    const flips::select::SelectorContext& context) {
  flips::fl::FederationSession session(
      config, parties, test, std::move(model),
      flips::select::make_selector(kind, context));
  while (!session.done()) session.advance();
  return session.result();
}

/// One party, one sample with all-zero features, logistic regression:
/// only the bias moves, and every step is hand-computable.
///   p(b) = softmax(b), g = p - onehot(y) (+ prox term), b -= lr g.
TEST(FlJobMath, FedProxLocalStepsHandComputed) {
  const std::size_t dim = 3;
  flips::data::Dataset party_set;
  party_set.num_classes = 2;
  party_set.features = flips::ml::Tensor(1, dim);
  party_set.labels = {0};

  flips::data::Dataset test = party_set;

  std::vector<Party> parties;
  parties.emplace_back(0, party_set, PartyProfile{});

  FlJobConfig config;
  config.rounds = 1;
  config.parties_per_round = 1;
  config.local.epochs = 2;  // two steps => the prox term engages
  config.local.batch_size = 1;
  config.local.sgd.learning_rate = 0.1;
  config.local.prox_mu = 1.0;
  config.server.optimizer = flips::fl::ServerOpt::kFedAvg;
  config.server.learning_rate = 1.0;
  config.eval_every = 1;
  config.seed = 5;

  flips::common::Rng rng(9);
  auto model = flips::ml::ModelFactory::logistic_regression(dim, 2, rng);
  const auto w0 = model.parameters();

  flips::select::SelectorContext solo;
  solo.num_parties = 1;
  solo.seed = 1;
  const auto result =
      run_job(config, parties, test, model, SelectorKind::kRandom, solo);

  // Step 1: b = (0,0), p = (1/2, 1/2), g = (-1/2, 1/2), prox = 0.
  const double lr = 0.1;
  const double b1_0 = lr * 0.5;
  const double b1_1 = -lr * 0.5;
  // Step 2: p = softmax(b1), g = p - y + mu * (b1 - 0).
  const double z = std::exp(b1_0) + std::exp(b1_1);
  const double p0 = std::exp(b1_0) / z;
  const double g0 = (p0 - 1.0) + 1.0 * b1_0;
  const double g1 = (1.0 - p0) + 1.0 * b1_1;
  const double b2_0 = b1_0 - lr * g0;
  const double b2_1 = b1_1 - lr * g1;

  // FedAvg server with lr 1: global = w0 + delta = local weights. The
  // features are all zero, so weights are untouched and the bias (the
  // last two parameters) carries the whole update.
  const auto& w = result.final_parameters;
  ASSERT_EQ(w.size(), w0.size());
  for (std::size_t i = 0; i + 2 < w.size(); ++i) {
    EXPECT_NEAR(w[i], w0[i], 1e-12);
  }
  EXPECT_NEAR(w[w.size() - 2], b2_0, 1e-12);
  EXPECT_NEAR(w[w.size() - 1], b2_1, 1e-12);
}

struct TinyFederation {
  std::vector<Party> parties;
  flips::data::Dataset test;
  flips::select::SelectorContext context;
};

TinyFederation build_tiny(std::size_t num_parties, double alpha,
                          std::size_t clusters, std::uint64_t seed) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = num_parties;
  dc.samples_per_party = 60;
  dc.alpha = alpha;
  dc.test_per_class = 60;
  dc.seed = seed;
  const auto data = flips::data::build_federated_data(dc);

  TinyFederation fed;
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    fed.parties.emplace_back(p, data.party_data[p], PartyProfile{});
  }
  fed.test = data.global_test;

  std::vector<flips::cluster::Point> points;
  for (const auto& ld : data.label_distributions) {
    auto point = flips::common::normalized(ld);
    for (auto& v : point) v = std::sqrt(v);
    points.push_back(std::move(point));
  }
  flips::cluster::KMeansConfig kc;
  kc.k = clusters;
  kc.restarts = 3;
  flips::common::Rng rng(seed ^ 0xC1);
  fed.context.num_parties = num_parties;
  fed.context.seed = seed ^ 0x5E1E;
  fed.context.cluster_of = flips::cluster::kmeans(points, kc, rng).assignments;
  fed.context.num_clusters = kc.k;
  return fed;
}

FlJobConfig tiny_job_config(std::size_t rounds, std::size_t nr,
                            std::uint64_t seed) {
  FlJobConfig config;
  config.rounds = rounds;
  config.parties_per_round = nr;
  config.local.epochs = 2;
  config.local.batch_size = 32;
  config.local.sgd.learning_rate = 0.05;
  config.server.optimizer = flips::fl::ServerOpt::kFedYogi;
  config.server.learning_rate = 0.05;
  config.eval_every = 2;
  config.seed = seed;
  return config;
}

double run_kind(const TinyFederation& fed, flips::select::SelectorKind kind,
                std::size_t rounds, std::uint64_t seed,
                std::optional<double>* rounds_to_target = nullptr,
                double target = 0.0) {
  auto config = tiny_job_config(rounds, std::max<std::size_t>(
                                            2, fed.parties.size() / 5),
                                seed);
  config.target_accuracy = target;
  flips::common::Rng mrng(seed ^ 0x30DE);
  auto model = flips::ml::ModelFactory::mlp(32, 24, 5, mrng);
  const auto result = run_job(config, fed.parties, fed.test, std::move(model),
                              kind, fed.context);
  if (rounds_to_target) {
    *rounds_to_target =
        result.rounds_to_target
            ? std::optional<double>(
                  static_cast<double>(*result.rounds_to_target))
            : std::nullopt;
  }
  return result.peak_accuracy;
}

/// The paper's headline at miniature scale: on a strongly skewed
/// federation, FLIPS's cluster-equalized selection beats random
/// selection on peak balanced accuracy (averaged over seeds).
TEST(FlJobEndToEnd, FlipsBeatsRandomOnSkewedFederation) {
  double flips_sum = 0.0;
  double random_sum = 0.0;
  for (const std::uint64_t seed : {21u, 22u, 23u}) {
    const auto fed = build_tiny(30, 0.2, 8, seed);
    flips_sum +=
        run_kind(fed, flips::select::SelectorKind::kFlips, 40, seed);
    random_sum +=
        run_kind(fed, flips::select::SelectorKind::kRandom, 40, seed);
  }
  EXPECT_GT(flips_sum / 3.0, random_sum / 3.0)
      << "FLIPS mean peak balanced accuracy must beat random";
}

TEST(FlJobAccounting, BytesStragglersAndFairness) {
  const auto fed = build_tiny(20, 0.3, 5, 31);
  auto config = tiny_job_config(30, 5, 31);
  flips::common::Rng mrng(31);
  auto model = flips::ml::ModelFactory::mlp(32, 8, 5, mrng);
  const std::size_t dim = model.num_parameters();

  const auto result = run_job(config, fed.parties, fed.test, model,
                              SelectorKind::kRandom, fed.context);

  ASSERT_EQ(result.history.size(), 30u);
  // Random selector returns exactly Nr, everyone responds: bytes are
  // rounds * Nr * dim * 8 * 2 (down + up).
  EXPECT_EQ(result.total_bytes,
            static_cast<std::uint64_t>(30 * 5 * dim * 8 * 2));
  for (const auto& record : result.history) {
    EXPECT_EQ(record.selected, 5u);
    EXPECT_EQ(record.responded, 5u);
  }
  EXPECT_GT(result.fairness.jain_index, 0.5);
  EXPECT_GT(result.total_time_s, 0.0);

  // With 20 parties and 5 picks/round, coverage takes >= 4 rounds.
  ASSERT_TRUE(result.coverage_round.has_value());
  EXPECT_GE(*result.coverage_round, 4u);

  // 100% straggling: nobody responds, accuracy never moves.
  auto straggle_config = config;
  straggle_config.stragglers.rate = 1.0;
  const auto stuck_result =
      run_job(straggle_config, fed.parties, fed.test, model,
              SelectorKind::kRandom, fed.context);
  for (const auto& record : stuck_result.history) {
    EXPECT_EQ(record.responded, 0u);
  }
  EXPECT_EQ(stuck_result.total_bytes,
            static_cast<std::uint64_t>(30 * 5 * dim * 8));  // down only
}

/// The worker pool must not change results: per-party round-seeded RNG
/// streams plus ordered aggregation make rounds bit-identical across
/// thread counts. SCAFFOLD is included because its control-variate
/// accumulation is the most order-sensitive path.
TEST(FlJobThreads, RoundResultsBitIdenticalAcrossThreadCounts) {
  const auto fed = build_tiny(12, 0.3, 4, 61);
  for (const auto algo :
       {flips::fl::ClientAlgo::kSgd, flips::fl::ClientAlgo::kScaffold}) {
    std::vector<flips::fl::FlJobResult> results;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      auto config = tiny_job_config(10, 4, 61);
      config.local.algo = algo;
      config.threads = threads;
      flips::common::Rng mrng(61);
      auto model = flips::ml::ModelFactory::mlp(32, 8, 5, mrng);
      results.push_back(run_job(config, fed.parties, fed.test,
                                std::move(model), SelectorKind::kFlips,
                                fed.context));
    }
    const auto& one = results[0];
    const auto& four = results[1];
    EXPECT_EQ(one.final_parameters, four.final_parameters)
        << "algo " << to_string(algo);
    EXPECT_EQ(one.total_bytes, four.total_bytes);
    EXPECT_EQ(one.peak_accuracy, four.peak_accuracy);
    ASSERT_EQ(one.history.size(), four.history.size());
    for (std::size_t r = 0; r < one.history.size(); ++r) {
      EXPECT_EQ(one.history[r].balanced_accuracy,
                four.history[r].balanced_accuracy);
      EXPECT_EQ(one.history[r].mean_train_loss,
                four.history[r].mean_train_loss);
      EXPECT_EQ(one.history[r].round_time_s, four.history[r].round_time_s);
      EXPECT_EQ(one.history[r].selected, four.history[r].selected);
      EXPECT_EQ(one.history[r].responded, four.history[r].responded);
    }
  }
}

/// The aggregator + codecs must preserve the thread-count invariant:
/// lossy codecs draw their stochastic rounding from the per-party RNG
/// streams and the broadcast encode runs sequentially, so results are
/// bit-identical across thread counts for every codec.
TEST(FlJobThreads, CodecResultsBitIdenticalAcrossThreadCounts) {
  const auto fed = build_tiny(12, 0.3, 4, 71);
  for (const auto codec :
       {flips::net::Codec::kQuant8, flips::net::Codec::kTopK}) {
    std::vector<flips::fl::FlJobResult> results;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      auto config = tiny_job_config(8, 4, 71);
      config.codec.codec = codec;
      config.threads = threads;
      flips::common::Rng mrng(71);
      auto model = flips::ml::ModelFactory::mlp(32, 8, 5, mrng);
      results.push_back(run_job(config, fed.parties, fed.test,
                                std::move(model), SelectorKind::kFlips,
                                fed.context));
    }
    EXPECT_EQ(results[0].final_parameters, results[1].final_parameters)
        << "codec " << flips::net::to_string(codec);
    EXPECT_EQ(results[0].total_bytes, results[1].total_bytes);
    EXPECT_EQ(results[0].upload_bytes, results[1].upload_bytes);
    EXPECT_EQ(results[0].download_bytes, results[1].download_bytes);
  }
}

/// Codec arms on a real (tiny) federation: lossy codecs must slash the
/// wire bytes (>= 4x for quant8) while error feedback keeps accuracy
/// in the same band as dense.
TEST(FlJobCodecs, Quant8CutsBytesAndTracksDenseAccuracy) {
  const auto fed = build_tiny(20, 0.3, 5, 81);

  auto run_with = [&](flips::net::Codec codec) {
    auto config = tiny_job_config(25, 5, 81);
    config.codec.codec = codec;
    flips::common::Rng mrng(81);
    auto model = flips::ml::ModelFactory::mlp(32, 8, 5, mrng);
    return run_job(config, fed.parties, fed.test, model,
                   SelectorKind::kFlips, fed.context);
  };

  const auto dense = run_with(flips::net::Codec::kDense64);
  const auto quant = run_with(flips::net::Codec::kQuant8);
  const auto topk = run_with(flips::net::Codec::kTopK);

  // Accounting consistency: up + down == total.
  for (const auto* r : {&dense, &quant, &topk}) {
    EXPECT_EQ(r->upload_bytes + r->download_bytes, r->total_bytes);
  }
  EXPECT_GT(dense.total_bytes, 4 * quant.total_bytes)
      << "quant8 must move >= 4x fewer bytes than dense";
  EXPECT_GT(dense.total_bytes, topk.total_bytes);

  // Error feedback keeps the lossy arms in the dense accuracy band.
  EXPECT_GT(quant.peak_accuracy, dense.peak_accuracy - 0.10);
  EXPECT_GT(topk.peak_accuracy, dense.peak_accuracy - 0.15);
}

TEST(FlJobPrivacy, DpSpendsEpsilonAndDegradesGracefully) {
  const auto fed = build_tiny(16, 0.3, 4, 41);
  auto config = tiny_job_config(8, 4, 41);
  config.privacy.mechanism = flips::fl::PrivacyMechanism::kDp;
  config.privacy.dp.clip_norm = 2.0;
  config.privacy.dp.noise_multiplier = 0.5;

  flips::common::Rng mrng(41);
  auto model = flips::ml::ModelFactory::mlp(32, 8, 5, mrng);
  const auto result = run_job(config, fed.parties, fed.test, std::move(model),
                              SelectorKind::kFlips, fed.context);
  EXPECT_GT(result.epsilon_spent, 0.0);
  EXPECT_LT(result.epsilon_spent, 1e3);
}

TEST(FlJobDeadline, TightDeadlineSilencesSlowParties) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = 12;
  dc.samples_per_party = 50;
  dc.alpha = 0.5;
  dc.test_per_class = 20;
  dc.seed = 51;
  const auto data = flips::data::build_federated_data(dc);

  std::vector<Party> parties;
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    PartyProfile profile;
    profile.speed_factor = p < 6 ? 1.0 : 40.0;  // half the fleet is slow
    parties.emplace_back(p, data.party_data[p], profile);
  }

  auto config = tiny_job_config(6, 6, 51);
  config.stragglers.mode = flips::fl::StragglerMode::kDeadline;
  config.stragglers.deadline_s = 1.0;

  flips::common::Rng mrng(51);
  auto model = flips::ml::ModelFactory::mlp(32, 8, 5, mrng);
  flips::select::SelectorContext ctx;
  ctx.num_parties = 12;
  ctx.seed = 3;
  const auto result = run_job(config, parties, data.global_test,
                              std::move(model), SelectorKind::kRandom, ctx);

  std::size_t selected = 0;
  std::size_t responded = 0;
  for (const auto& record : result.history) {
    selected += record.selected;
    responded += record.responded;
    EXPECT_LE(record.round_time_s, 1.0 + 1e-9);
  }
  EXPECT_LT(responded, selected);  // the slow half misses the deadline
  EXPECT_GT(responded, 0u);        // the fast half does not
}

}  // namespace
