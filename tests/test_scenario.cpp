// The scenario library on its own (flips_scenario over flips_core, no
// bench code): the ScenarioSpec key registry, presets and lowering,
// and the session builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cluster/dbi.h"
#include "common/stats.h"
#include "core/private_clustering.h"
#include "scenario/spec.h"

namespace {

TEST(ScenarioSpec, OverridesParseAndValidate) {
  flips::ScenarioSpec spec;
  flips::apply_override(spec, "rounds=60");
  flips::apply_override(spec, "alpha=0.6");
  flips::apply_override(spec, "selector=oort");
  flips::apply_override(spec, "codec=quant8");
  flips::apply_override(spec, "sessions=4");
  EXPECT_EQ(spec.rounds, 60u);
  EXPECT_DOUBLE_EQ(spec.alpha, 0.6);
  EXPECT_EQ(spec.selector, "oort");
  EXPECT_EQ(spec.codec, "quant8");
  EXPECT_EQ(spec.sessions, 4u);

  EXPECT_THROW(flips::apply_override(spec, "bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "rounds=abc"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "selector=best"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "no-equals-sign"),
               std::invalid_argument);
  // Failed overrides must not half-apply.
  EXPECT_EQ(spec.selector, "oort");

  // Values that used to run silently wrong: runs=0 divides by zero in
  // run_selector, a negative participation casts a negative double to
  // size_t, alpha <= 0 or nan made Dirichlet sampling substitute a
  // tiny concentration, a nan learning rate trained a NaN model, and a
  // huge negative one sent non-finite deltas into quant8's int8 cast.
  for (const char* bad :
       {"runs=0", "participation=-0.5", "participation=0",
        "participation=1.5", "participation=nan", "alpha=0", "alpha=-1",
        "alpha=nan", "alpha=inf", "local_lr=nan", "local_lr=0",
        "local_lr=-1e300", "local_lr=inf", "server_lr=0", "server_lr=-1",
        "server_lr=nan", "server_lr=inf", "dp_clip=0", "dp_clip=-1",
        "dp_clip=nan", "dp_clip=inf", "prox_mu=-0.1", "prox_mu=nan",
        "prox_mu=inf", "dp_noise=-0.5", "dp_noise=nan", "dp_noise=inf",
        "straggler_rate=-0.1", "straggler_rate=1.5", "straggler_rate=nan",
        "target_accuracy=-0.1", "target_accuracy=1.01",
        "target_accuracy=nan", "privacy=masking"}) {
    EXPECT_THROW(flips::apply_override(spec, bad), std::invalid_argument)
        << bad;
  }
  // No session masks updates, so masking is not a privacy mechanism;
  // the rejection names the ones that exist.
  try {
    flips::apply_override(spec, "privacy=masking");
    ADD_FAILURE() << "privacy=masking was accepted";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("(expected one of: none dp)"),
              std::string::npos)
        << error.what();
  }
  flips::apply_override(spec, "runs=1");
  flips::apply_override(spec, "participation=1");
  flips::apply_override(spec, "alpha=1e-3");
  // The range ends are accepted.
  for (const char* edge :
       {"local_lr=1e-9", "server_lr=1", "dp_clip=0.5", "prox_mu=0",
        "dp_noise=0", "straggler_rate=0", "straggler_rate=1",
        "target_accuracy=0", "target_accuracy=1"}) {
    EXPECT_NO_THROW(flips::apply_override(spec, edge)) << edge;
  }
  EXPECT_EQ(spec.runs, 1u);
  EXPECT_DOUBLE_EQ(spec.participation, 1.0);
  EXPECT_DOUBLE_EQ(spec.alpha, 1e-3);
  // Served tenants go through the same setters.
  const flips::KeyValueList negative{{"participation", "-0.5"}};
  EXPECT_THROW(flips::ScenarioSpec::from_key_values(negative),
               std::invalid_argument);
  const flips::KeyValueList nan_lr{{"local_lr", "nan"}};
  EXPECT_THROW(flips::ScenarioSpec::from_key_values(nan_lr),
               std::invalid_argument);
}

TEST(ScenarioSpec, FederationModeKeysParseAndLower) {
  flips::ScenarioSpec spec;
  EXPECT_EQ(spec.mode, "sync");
  flips::apply_override(spec, "mode=async");
  flips::apply_override(spec, "buffer_k=3");
  flips::apply_override(spec, "max_staleness=7");
  EXPECT_EQ(spec.mode, "async");
  EXPECT_EQ(spec.buffer_k, 3u);
  EXPECT_EQ(spec.max_staleness, 7u);
  EXPECT_THROW(flips::apply_override(spec, "mode=lockstep"),
               std::invalid_argument);
  EXPECT_EQ(spec.mode, "async");

  const auto config = flips::to_experiment_config(spec);
  EXPECT_EQ(config.mode, flips::fl::FederationMode::kAsync);
  EXPECT_EQ(config.async.buffer_k, 3u);
  EXPECT_EQ(config.async.max_staleness, 7u);

  const flips::ScenarioSpec sync_spec;
  const auto sync_config = flips::to_experiment_config(sync_spec);
  EXPECT_EQ(sync_config.mode, flips::fl::FederationMode::kSync);
}

TEST(ScenarioSpec, PresetsCoverTheTableGridAndLowerCorrectly) {
  const auto names = flips::scenario_preset_names();
  EXPECT_EQ(names.size(), 12u);
  for (const auto& name : names) {
    const auto spec = flips::scenario_preset(name);
    EXPECT_EQ(spec.name, name);
    // Every preset must lower onto the engine without throwing.
    const auto config = flips::to_experiment_config(spec);
    EXPECT_GT(config.target_accuracy, 0.0);
  }
  EXPECT_THROW(flips::scenario_preset("mnist-fedsgd"),
               std::invalid_argument);

  const auto prox = flips::scenario_preset("ecg-fedprox");
  EXPECT_EQ(prox.server_opt, "fedavg");  // paper pairing
  EXPECT_DOUBLE_EQ(prox.prox_mu, 0.1);
  const auto yogi = flips::scenario_preset("femnist-fedyogi");
  EXPECT_EQ(yogi.server_opt, "fedyogi");
  EXPECT_DOUBLE_EQ(yogi.prox_mu, 0.0);
}

TEST(ScenarioSpec, LowersOntoExperimentConfig) {
  flips::ScenarioSpec spec = flips::scenario_preset("ham-fedyogi");
  flips::apply_override(spec, "parties=32");
  flips::apply_override(spec, "samples=48");
  flips::apply_override(spec, "rounds=21");
  flips::apply_override(spec, "threads=3");
  flips::apply_override(spec, "codec=topk");
  flips::apply_override(spec, "privacy=dp");
  flips::apply_override(spec, "dp_noise=0.7");
  flips::apply_override(spec, "client_algo=scaffold");
  flips::apply_override(spec, "class_separation=1.9");

  const auto config = flips::to_experiment_config(spec);
  EXPECT_EQ(config.spec.name, "ham10000");
  EXPECT_DOUBLE_EQ(config.spec.class_separation, 1.9);
  EXPECT_EQ(config.scale.num_parties, 32u);
  EXPECT_EQ(config.scale.samples_per_party, 48u);
  EXPECT_EQ(config.scale.rounds, 21u);
  EXPECT_EQ(config.threads, 3u);
  EXPECT_EQ(config.codec.codec, flips::net::Codec::kTopK);
  EXPECT_EQ(config.server_opt, flips::fl::ServerOpt::kFedYogi);
  EXPECT_EQ(config.client_algo, flips::fl::ClientAlgo::kScaffold);
  EXPECT_EQ(config.privacy.mechanism, flips::fl::PrivacyMechanism::kDp);
  EXPECT_DOUBLE_EQ(config.privacy.dp.noise_multiplier, 0.7);
  EXPECT_EQ(flips::selector_kind(spec), flips::select::SelectorKind::kFlips);
}

TEST(ScenarioSpec, KeyValueRoundTripIsExact) {
  // A spec that exercises every value family: choice strings,
  // registry-validated selector, integers, and doubles whose decimal
  // images must survive the wire (shortest-round-trip formatting).
  flips::ScenarioSpec spec = flips::scenario_preset("femnist-fedyogi");
  flips::apply_override(spec, "alpha=0.1");
  flips::apply_override(spec, "participation=0.35");
  flips::apply_override(spec, "selector=oort");
  flips::apply_override(spec, "codec=topk");
  flips::apply_override(spec, "mode=async");
  flips::apply_override(spec, "buffer_k=5");
  flips::apply_override(spec, "seed=9001");
  flips::apply_override(spec, "sessions=3");
  spec.local_lr = 0.1 + 0.2;  // 0.30000000000000004: needs 17 digits

  const auto kv = spec.to_key_values();
  const auto back = flips::ScenarioSpec::from_key_values(kv);
  EXPECT_EQ(back, spec);
  EXPECT_EQ(back.to_key_values(), kv);

  // A partial list is an override set over the defaults.
  const auto sparse = flips::ScenarioSpec::from_key_values(
      {{"rounds", "7"}, {"selector", "oort"}});
  EXPECT_EQ(sparse.rounds, 7u);
  EXPECT_EQ(sparse.selector, "oort");
  EXPECT_EQ(sparse.dataset, flips::ScenarioSpec{}.dataset);

  // Wire submissions get the same fail-fast validation as --set.
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"bogus", "1"}}),
               std::invalid_argument);
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"rounds", "abc"}}),
               std::invalid_argument);
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"selector", "best"}}),
               std::invalid_argument);
  EXPECT_THROW(flips::ScenarioSpec::from_key_values({{"mode", "warp"}}),
               std::invalid_argument);
}

TEST(ScenarioSpec, UsageListsEveryKey) {
  const flips::ScenarioSpec spec;
  const std::string usage = flips::scenario_usage(spec);
  for (const char* key :
       {"dataset=", "alpha=", "parties=", "rounds=", "selector=",
        "codec=", "sessions=", "privacy=", "straggler_rate=", "mode=",
        "buffer_k=", "max_staleness=", "churn=", "fault_rate=",
        "min_quorum=", "max_retries="}) {
    EXPECT_NE(usage.find(key), std::string::npos) << key;
  }
}

TEST(ScenarioSpec, FaultKeysParseValidateAndLower) {
  flips::ScenarioSpec spec;
  flips::apply_override(spec, "churn=1.5");
  flips::apply_override(spec, "fault_rate=0.1");
  flips::apply_override(spec, "min_quorum=0.5");
  flips::apply_override(spec, "max_retries=3");
  EXPECT_DOUBLE_EQ(spec.churn, 1.5);
  EXPECT_DOUBLE_EQ(spec.fault_rate, 0.1);
  EXPECT_DOUBLE_EQ(spec.min_quorum, 0.5);
  EXPECT_EQ(spec.max_retries, 3u);

  const auto config = flips::to_experiment_config(spec);
  EXPECT_DOUBLE_EQ(config.faults.churn, 1.5);
  EXPECT_DOUBLE_EQ(config.faults.crash_rate, 0.1);
  EXPECT_DOUBLE_EQ(config.faults.min_quorum, 0.5);
  EXPECT_EQ(config.faults.max_retries, 3u);
  EXPECT_TRUE(config.faults.enabled());

  // The fault keys ride the serving wire with everything else.
  const auto kv = spec.to_key_values();
  const auto back = flips::ScenarioSpec::from_key_values(kv);
  EXPECT_EQ(back, spec);

  // Fail-fast on out-of-range knobs, same as every other key.
  EXPECT_THROW(flips::apply_override(spec, "churn=-1"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "churn=nan"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "fault_rate=2"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "min_quorum=1.5"),
               std::invalid_argument);
  EXPECT_THROW(flips::apply_override(spec, "max_retries=65"),
               std::invalid_argument);
}

TEST(ScenarioSpec, FaultPlanActivatesTheDeviceFleet) {
  // With faults off, build_federation gives parties speed factors only
  // and no dispatch can fail: every selected party responds. With any
  // fault knob on, the senior-care device fleet's fault-rate and churn
  // columns reach the fault plan, so dispatches actually crash. Pinned
  // end to end because the Device fault_rate column was once silently
  // unused.
  flips::ScenarioSpec spec;
  spec.parties = 16;
  spec.samples_per_party = 20;
  spec.rounds = 4;
  spec.threads = 2;
  spec.seed = 99;

  auto run = [&] {
    auto session = flips::make_session(flips::to_experiment_config(spec),
                                       flips::selector_kind(spec), spec.seed);
    while (!session->done()) session->advance();
    return session->result();
  };

  const auto plain = run();
  for (const auto& record : plain.history) {
    EXPECT_EQ(record.responded, record.selected);
    EXPECT_EQ(record.crashed, 0u);
  }

  flips::apply_override(spec, "churn=1");
  flips::apply_override(spec, "fault_rate=0.15");
  const auto faulted = run();
  ASSERT_EQ(faulted.history.size(), 4u);
  std::size_t crashed = 0;
  for (const auto& record : faulted.history) crashed += record.crashed;
  EXPECT_GT(crashed, 0u);
}

TEST(MakeSession, BuildsFreshSessionsThatShareNothing) {
  // The builder keeps no state between calls: two builds of one
  // (config, seed) step to the same bits, each over parties of its own.
  flips::ScenarioSpec spec = flips::scenario_preset("ecg-fedyogi");
  spec.parties = 12;
  spec.samples_per_party = 20;
  spec.rounds = 3;
  spec.threads = 2;
  const auto config = flips::to_experiment_config(spec);
  const auto kind = flips::selector_kind(spec);

  auto a = flips::make_session(config, kind, spec.seed);
  auto b = flips::make_session(config, kind, spec.seed);
  EXPECT_NE(&a->parties(), &b->parties());
  while (!a->done()) a->advance();
  while (!b->done()) b->advance();
  EXPECT_EQ(a->result().final_parameters, b->result().final_parameters);
  EXPECT_EQ(a->result().history.size(), spec.rounds);
}

/// The Hellinger points (square roots of the label proportions) of
/// `federation`'s parties, in party order: what the enclave clusters.
std::vector<flips::cluster::Point> hellinger_points(
    const flips::Federation& federation) {
  std::vector<flips::cluster::Point> points;
  for (const auto& ld : federation.label_distributions) {
    points.push_back(flips::common::normalized(ld));
    for (auto& v : points.back()) v = std::sqrt(v);
  }
  return points;
}

TEST(BuildFederation, ClustersInTheEnclaveLikePlainKMeans) {
  // Below the Lloyd threshold with k fixed, the enclave's clustering is
  // plain k-means over the Hellinger points on stream seed ^ 0xC1.
  flips::ScenarioSpec spec = flips::scenario_preset("ham-fedyogi");
  spec.parties = 40;
  spec.samples_per_party = 30;
  spec.flips_clusters = 6;
  const auto config = flips::to_experiment_config(spec);
  for (const std::uint64_t seed : {3u, 42u}) {
    const flips::Federation fed = flips::build_federation(config, seed);
    flips::cluster::KMeansConfig kc;
    kc.k = 6;
    kc.restarts = 3;
    flips::common::Rng rng(seed ^ 0xC1u);
    const auto expected =
        flips::cluster::kmeans(hellinger_points(fed), kc, rng);
    EXPECT_EQ(fed.clusters, expected.assignments) << "seed " << seed;
    EXPECT_EQ(fed.num_clusters, 6u);
  }
}

TEST(BuildFederation, ZeroClustersPicksKWithTheElbow) {
  // flips_clusters=0 hands k to the DBI elbow inside the enclave (it
  // used to leave every party in one cluster).
  flips::ScenarioSpec spec = flips::scenario_preset("ecg-fedavg");
  spec.parties = 40;
  spec.samples_per_party = 30;
  flips::apply_override(spec, "flips_clusters=0");
  const std::uint64_t seed = 9;
  const flips::Federation fed =
      flips::build_federation(flips::to_experiment_config(spec), seed);

  const flips::core::PrivateClusteringConfig defaults;  // the elbow's knobs
  flips::cluster::OptimalKConfig okc;
  okc.k_min = defaults.k_min;
  okc.k_max = defaults.k_max;
  okc.repeats = flips::core::kElbowRepeats;
  okc.kmeans.restarts = defaults.restarts;
  flips::common::Rng rng(seed ^ 0xC1u);
  const std::size_t k =
      flips::cluster::optimal_k_elbow(hellinger_points(fed), okc, rng).k;
  EXPECT_GE(k, 2u);
  EXPECT_EQ(fed.num_clusters, k);
  ASSERT_EQ(fed.clusters.size(), spec.parties);
  std::vector<bool> used(k, false);
  for (const std::size_t c : fed.clusters) {
    ASSERT_LT(c, k);
    used[c] = true;
  }
  EXPECT_EQ(std::count(used.begin(), used.end(), true),
            static_cast<std::ptrdiff_t>(k));
}

}  // namespace
