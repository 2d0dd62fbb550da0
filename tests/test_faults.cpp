// Fault-injection plane (net/faults.h) and the session's recovery
// paths: deterministic seeded churn/crash/link schedules, bit-identity
// across thread counts under a nonzero fault plan (both federation
// modes), sync quorum-degraded folding, async retry accounting, the
// on_retry observer seam, and the flips_faults_* metrics bridge.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"
#include "fl/job.h"
#include "fl/metrics_observer.h"
#include "fl/observer.h"
#include "fl/session.h"
#include "net/device.h"
#include "net/faults.h"
#include "selection/factory.h"

namespace {

using flips::fl::FederationSession;
using flips::fl::FlJobConfig;
using flips::fl::FlJobResult;
using flips::fl::Party;
using flips::fl::PartyProfile;
using flips::net::FaultConfig;
using flips::net::FaultPlan;

struct TinyFederation {
  std::vector<Party> parties;
  flips::data::Dataset test;
  flips::select::SelectorContext context;
};

/// A small federation whose party profiles carry the reliability
/// columns the fault plan consumes (an up fraction of 0.8 from 40 s up
/// / 10 s down, a 5% device fault rate).
TinyFederation build_faulty(std::size_t num_parties, std::uint64_t seed) {
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
    profile.speed_factor = 1.0 + static_cast<double>(p % 3);
    profile.fault_rate = 0.05;
    profile.mean_up_s = 40.0;
    profile.mean_down_s = 10.0;
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

FlJobConfig faulty_config(std::size_t rounds, std::size_t nr,
                          std::uint64_t seed) {
  FlJobConfig config;
  config.rounds = rounds;
  config.parties_per_round = nr;
  config.local.epochs = 2;
  config.local.batch_size = 16;
  config.local.sgd.learning_rate = 0.05;
  config.server.optimizer = flips::fl::ServerOpt::kFedYogi;
  config.server.learning_rate = 0.05;
  config.eval_every = 2;
  config.seed = seed;
  config.faults.churn = 1.0;
  config.faults.crash_rate = 0.15;
  config.faults.link_fault_rate = 0.1;
  config.faults.min_quorum = 0.25;
  config.faults.max_retries = 2;
  return config;
}

flips::ml::Sequential tiny_model(std::uint64_t seed) {
  flips::common::Rng rng(seed ^ 0x30DE);
  return flips::ml::ModelFactory::mlp(32, 8, 5, rng);
}

FlJobResult run_session(const FlJobConfig& config,
                        const TinyFederation& fed,
                        flips::fl::RoundObserver* observer = nullptr) {
  FederationSession session(
      config, fed.parties, fed.test, tiny_model(config.seed),
      flips::select::make_selector(flips::select::SelectorKind::kFlips,
                                   fed.context));
  if (observer != nullptr) session.add_observer(observer);
  while (!session.done()) session.advance();
  return session.result();
}

void expect_same_result(const FlJobResult& a, const FlJobResult& b) {
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].balanced_accuracy,
              b.history[r].balanced_accuracy);
    EXPECT_EQ(a.history[r].responded, b.history[r].responded);
    EXPECT_EQ(a.history[r].crashed, b.history[r].crashed);
    EXPECT_EQ(a.history[r].retried, b.history[r].retried);
    EXPECT_EQ(a.history[r].backfilled, b.history[r].backfilled);
    EXPECT_EQ(a.history[r].quorum_skipped, b.history[r].quorum_skipped);
    EXPECT_EQ(a.history[r].round_time_s, b.history[r].round_time_s);
  }
}

// ---------------------------------------------------------------------
// FaultPlan unit behavior.

TEST(FaultPlan, SchedulesArePureFunctionsOfTheSeed) {
  FaultConfig config;
  config.churn = 1.0;
  config.crash_rate = 0.3;
  config.link_fault_rate = 0.2;
  FaultPlan a(1234, config, 8);
  FaultPlan b(1234, config, 8);
  FaultPlan other(99, config, 8);
  std::size_t diverged = 0;
  for (std::size_t party = 0; party < 8; ++party) {
    for (std::uint64_t event = 0; event < 64; ++event) {
      EXPECT_EQ(a.crashes(party, event, 0.05),
                b.crashes(party, event, 0.05));
      const auto la = a.transfer(party, event);
      const auto lb = b.transfer(party, event);
      EXPECT_EQ(la.failed, lb.failed);
      EXPECT_EQ(la.slowdown, lb.slowdown);
      if (a.crashes(party, event, 0.05) !=
          other.crashes(party, event, 0.05)) {
        ++diverged;
      }
    }
    for (double t = 0.0; t < 500.0; t += 7.0) {
      EXPECT_EQ(a.available(party, t, 40.0, 10.0),
                b.available(party, t, 40.0, 10.0));
    }
  }
  EXPECT_GT(diverged, 0u);  // a different seed is a different plan
}

TEST(FaultPlan, ChurnTraceMatchesStationaryUpFraction) {
  FaultConfig config;
  config.churn = 1.0;
  FaultPlan plan(7, config, 4);
  // mean_up 30 s / mean_down 10 s => stationary up fraction 0.75.
  std::size_t up = 0;
  const std::size_t samples = 20000;
  for (std::size_t i = 0; i < samples; ++i) {
    if (plan.available(1, static_cast<double>(i), 30.0, 10.0)) ++up;
  }
  const double fraction = static_cast<double>(up) / samples;
  EXPECT_NEAR(fraction, 0.75, 0.05);
}

TEST(FaultPlan, ChurnReplaysDeterministicallyWhenQueriedBackwards) {
  FaultConfig config;
  config.churn = 1.0;
  FaultPlan walked(42, config, 2);
  std::vector<bool> forward;
  for (double t = 0.0; t < 200.0; t += 3.0) {
    forward.push_back(walked.available(0, t, 20.0, 20.0));
  }
  // A non-monotone query must replay the same trace from t = 0, not
  // invent a new one.
  FaultPlan fresh(42, config, 2);
  std::size_t i = 0;
  for (double t = 0.0; t < 200.0; t += 3.0, ++i) {
    EXPECT_EQ(fresh.available(0, t, 20.0, 20.0), forward[i]);
  }
  EXPECT_EQ(walked.available(0, 9.0, 20.0, 20.0),
            fresh.available(0, 9.0, 20.0, 20.0));
}

TEST(FaultPlan, DisabledPlanNeverFails) {
  FaultPlan plan(5, FaultConfig{}, 4);
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.available(0, 100.0, 40.0, 10.0));
  EXPECT_FALSE(plan.crashes(0, 3, 0.0));
  EXPECT_FALSE(plan.transfer(0, 3).failed);
}

TEST(FaultConfig, BackoffScheduleIsExponential) {
  FaultConfig config;
  config.backoff_base_s = 0.5;
  config.backoff_mult = 2.0;
  EXPECT_DOUBLE_EQ(config.backoff_s(0), 0.5);
  EXPECT_DOUBLE_EQ(config.backoff_s(1), 1.0);
  EXPECT_DOUBLE_EQ(config.backoff_s(3), 4.0);
}

TEST(FaultConfig, ValidateRejectsOutOfRangeKnobs) {
  auto bad = [](auto&& mutate) {
    FaultConfig config;
    mutate(config);
    EXPECT_THROW(config.validate(), std::invalid_argument);
  };
  bad([](FaultConfig& c) { c.churn = -1.0; });
  bad([](FaultConfig& c) { c.crash_rate = 1.5; });
  bad([](FaultConfig& c) { c.link_fault_rate = 1.0; });
  bad([](FaultConfig& c) { c.link_slowdown = 0.5; });
  bad([](FaultConfig& c) { c.max_retries = 65; });
  bad([](FaultConfig& c) { c.backoff_mult = 0.9; });
  bad([](FaultConfig& c) { c.min_quorum = 1.5; });
  FaultConfig ok;
  ok.churn = 2.0;
  ok.crash_rate = 0.5;
  EXPECT_NO_THROW(ok.validate());
}

// ---------------------------------------------------------------------
// Session recovery paths.

/// One reliability model: a profile's fault_rate acts only through the
/// fault plan's crash stream. With the plan off, a fleet that crashes
/// half its dispatches under a plan answers every pick; with only churn
/// on (and parties that never churn), the same columns crash dispatches.
TEST(SessionFaults, DeviceColumnsActOnlyThroughThePlan) {
  auto fed = build_faulty(8, 17);
  std::vector<Party> fragile;
  for (const auto& party : fed.parties) {
    PartyProfile profile = party.profile();
    profile.fault_rate = 0.5;
    profile.mean_up_s = 0.0;  // never churns
    fragile.emplace_back(party.id(), party.dataset(), profile);
  }
  fed.parties = std::move(fragile);
  FlJobConfig config = faulty_config(4, 3, 17);

  config.faults = FaultConfig{};
  const auto plain = run_session(config, fed);
  ASSERT_EQ(plain.history.size(), 4u);
  for (const auto& record : plain.history) {
    EXPECT_GT(record.selected, 0u);
    EXPECT_EQ(record.responded, record.selected);
    EXPECT_EQ(record.crashed, 0u);
  }

  config.faults.churn = 1.0;
  const auto churned = run_session(config, fed);
  std::size_t crashed = 0;
  for (const auto& record : churned.history) crashed += record.crashed;
  EXPECT_GT(crashed, 0u);
}

TEST(SessionFaults, SyncFaultedRunIsBitIdenticalAcrossThreads) {
  const auto fed = build_faulty(12, 23);
  auto config = faulty_config(8, 4, 23);
  config.threads = 1;
  const auto one = run_session(config, fed);
  config.threads = 4;
  const auto four = run_session(config, fed);
  expect_same_result(one, four);

  std::size_t crashed = 0;
  std::size_t backfilled = 0;
  for (const auto& record : one.history) {
    crashed += record.crashed;
    backfilled += record.backfilled;
  }
  EXPECT_GT(crashed, 0u);     // the plan actually fired
  EXPECT_GT(backfilled, 0u);  // and the backfill waves recovered slots
}

TEST(SessionFaults, AsyncFaultedRunIsBitIdenticalAcrossThreads) {
  const auto fed = build_faulty(12, 29);
  auto config = faulty_config(10, 4, 29);
  config.mode = flips::fl::FederationMode::kAsync;
  config.async.buffer_k = 2;
  config.async.max_staleness = 4;
  config.threads = 1;
  const auto one = run_session(config, fed);
  config.threads = 4;
  const auto four = run_session(config, fed);
  expect_same_result(one, four);

  std::size_t crashed = 0;
  std::size_t retried = 0;
  for (const auto& record : one.history) {
    crashed += record.crashed;
    retried += record.retried;
  }
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(retried, 0u);  // failed slots were re-dispatched in place
}

/// Below-quorum rounds skip the server fold instead of crashing: the
/// session still evaluates, records the round, and advances.
TEST(SessionFaults, QuorumShortfallSkipsTheFoldGracefully) {
  const auto fed = build_faulty(10, 31);
  auto config = faulty_config(6, 4, 31);
  config.faults.crash_rate = 0.95;
  config.faults.churn = 0.0;
  config.faults.link_fault_rate = 0.0;
  config.faults.max_retries = 0;  // no backfill: force the shortfall
  config.faults.min_quorum = 0.75;
  const auto result = run_session(config, fed);
  ASSERT_EQ(result.history.size(), 6u);
  std::size_t skipped = 0;
  for (const auto& record : result.history) {
    if (record.quorum_skipped) ++skipped;
  }
  EXPECT_GT(skipped, 0u);
}

TEST(SessionFaults, OnRetryObserverSeesBackfillsAndRetries) {
  struct RetrySink final : flips::fl::RoundObserver {
    std::size_t retries = 0;
    double last_backoff = -1.0;
    void on_retry(std::size_t,
                  const flips::fl::RetryRecord& record) override {
      ++retries;
      last_backoff = record.backoff_s;
      EXPECT_GE(record.attempt, 1u);
    }
  };
  const auto fed = build_faulty(12, 37);

  RetrySink sync_sink;
  auto config = faulty_config(8, 4, 37);
  const auto sync_result = run_session(config, fed, &sync_sink);
  std::size_t backfilled = 0;
  for (const auto& record : sync_result.history) {
    backfilled += record.backfilled;
  }
  EXPECT_EQ(sync_sink.retries, backfilled);

  RetrySink async_sink;
  config.mode = flips::fl::FederationMode::kAsync;
  config.async.buffer_k = 2;
  const auto async_result = run_session(config, fed, &async_sink);
  std::size_t retried = 0;
  for (const auto& record : async_result.history) {
    retried += record.retried;
  }
  EXPECT_EQ(async_sink.retries, retried);
  EXPECT_GT(async_sink.retries, 0u);
  EXPECT_GE(async_sink.last_backoff, config.faults.backoff_base_s);
}

/// Only fault failures are retried. With the plan switched on by churn
/// but a fleet that never churns (mean_up_s = 0) and no crash or link
/// faults, nothing can fail by fault; the drop-fraction stragglers are
/// ordinary non-responders. Async must neither retry them nor count them
/// as crashed — the same rule sync backfill follows.
TEST(SessionFaults, AsyncRetriesOnlyFaultFailures) {
  struct RetrySink final : flips::fl::RoundObserver {
    std::size_t retries = 0;
    void on_retry(std::size_t, const flips::fl::RetryRecord&) override {
      ++retries;
    }
  };
  auto fed = build_faulty(12, 43);
  for (Party& party : fed.parties) {
    PartyProfile profile = party.profile();
    profile.mean_up_s = 0.0;
    profile.fault_rate = 0.0;
    party = Party(party.id(), party.dataset(), profile);
  }
  auto config = faulty_config(8, 4, 43);
  config.mode = flips::fl::FederationMode::kAsync;
  config.async.buffer_k = 2;
  config.faults = FaultConfig{};
  config.faults.churn = 1.0;
  config.stragglers.rate = 0.5;
  ASSERT_TRUE(config.faults.enabled());

  RetrySink sink;
  const auto result = run_session(config, fed, &sink);
  std::size_t selected = 0;
  std::size_t responded = 0;
  for (const auto& record : result.history) {
    EXPECT_EQ(record.crashed, 0u) << "round " << record.round;
    EXPECT_EQ(record.retried, 0u) << "round " << record.round;
    selected += record.selected;
    responded += record.responded + record.dropped_stale;
  }
  EXPECT_EQ(sink.retries, 0u);
  EXPECT_GT(selected, responded);  // stragglers did arrive as failures
}

/// A fault-free config must not consume any fault-plan state: the
/// default FaultConfig reproduces the historical results bit-for-bit
/// (pinned implicitly by every other suite, re-pinned here explicitly
/// against a copy of the config with faults zeroed).
TEST(SessionFaults, DisabledFaultsMatchDefaultConfigBitForBit) {
  const auto fed = build_faulty(10, 41);
  auto config = faulty_config(6, 4, 41);
  config.faults = FaultConfig{};
  const auto a = run_session(config, fed);
  FlJobConfig plain = config;
  plain.faults = FaultConfig{};
  const auto b = run_session(plain, fed);
  expect_same_result(a, b);
}

/// The §7 acceptance shape: a senior-care fleet with churn enabled and
/// a >= 10% per-dispatch crash rate completes its schedule through
/// backfill + quorum degradation — no throw, no hang, tallies visible.
TEST(SessionFaults, SeniorCareChurnAndCrashRunCompletes) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = 16;
  dc.samples_per_party = 40;
  dc.alpha = 0.3;
  dc.test_per_class = 40;
  dc.seed = 47;
  const auto data = flips::data::build_federated_data(dc);

  TinyFederation fed;
  flips::common::Rng fleet_rng(47 ^ 0xF1EE7);
  const flips::net::FleetBuilder devices(
      flips::net::FleetMix::senior_care());
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    fed.parties.emplace_back(
        p, data.party_data[p],
        PartyProfile::from_device(devices.sample(fleet_rng)));
  }
  fed.test = data.global_test;
  fed.context.num_parties = fed.parties.size();
  fed.context.seed = 47 ^ 0x5E1E;

  FlJobConfig config = faulty_config(10, 5, 47);
  config.faults.crash_rate = 0.10;
  config.faults.churn = 1.0;
  config.faults.min_quorum = 0.4;
  FederationSession session(
      config, fed.parties, fed.test, tiny_model(47),
      flips::select::make_selector(flips::select::SelectorKind::kRandom,
                                   fed.context));
  while (!session.done()) session.advance();
  const auto result = session.result();
  ASSERT_EQ(result.history.size(), 10u);
  std::size_t crashed = 0;
  std::size_t recovered = 0;
  for (const auto& record : result.history) {
    crashed += record.crashed;
    recovered += record.backfilled + record.retried;
  }
  EXPECT_GT(crashed, 0u);
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(result.peak_accuracy, 0.0);
}

/// The MetricsObserver bridges the fault tallies into flips_faults_*
/// families with per-event labels.
TEST(SessionFaults, MetricsObserverExportsFaultCounters) {
  flips::obs::Registry registry;
  flips::obs::Tracer tracer;
  flips::fl::MetricsObserver observer("t0", &registry, &tracer);
  flips::fl::RoundRecord record;
  record.crashed = 3;
  record.retried = 2;
  record.backfilled = 1;
  record.quorum_skipped = true;
  observer.on_round_end(1, record);
  flips::fl::RetryRecord retry;
  retry.backoff_s = 0.5;
  observer.on_retry(1, retry);
  const std::string text = registry.text_exposition();
  EXPECT_NE(text.find("flips_faults_total"), std::string::npos);
  EXPECT_NE(text.find("event=\"crashed\""), std::string::npos);
  EXPECT_NE(text.find("event=\"quorum_skipped\""), std::string::npos);
  EXPECT_NE(text.find("flips_faults_retry_backoff_seconds"),
            std::string::npos);
}

}  // namespace
