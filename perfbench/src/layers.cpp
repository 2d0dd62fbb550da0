#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"
#include "ml/model.h"
#include "net/device.h"
#include "obs/metrics.h"
#include "selection/factory.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

// Mirrors bench/common/experiment.cpp's speed-factor profile (60 %
// nominal, 30 % 2x slower, 10 % 4x slower) for fault-free fleets.
double speed_factor(flips::common::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.6) return 1.0;
  if (u < 0.9) return 2.0;
  return 4.0;
}

// Mirrors the bench engine's FlJobConfig lowering.
flips::fl::FlJobConfig job_config(const flips::bench::ExperimentConfig& c,
                                  std::uint64_t seed) {
  flips::fl::FlJobConfig job;
  job.rounds = c.scale.rounds;
  job.parties_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             c.participation * static_cast<double>(c.scale.num_parties)));
  job.local.epochs = c.local_epochs;
  job.local.batch_size = 32;
  job.local.sgd.learning_rate = c.local_lr;
  job.local.sgd.lr_decay_factor = 0.5;
  job.local.sgd.lr_decay_rounds = 20;
  job.local.prox_mu = c.prox_mu;
  job.server.optimizer = c.server_opt;
  job.server.learning_rate =
      c.server_opt == flips::fl::ServerOpt::kFedAvg ? 1.0 : c.server_lr;
  job.stragglers.rate = c.straggler_rate;
  job.privacy = c.privacy;
  job.local.algo = c.client_algo;
  job.seed = seed;
  job.threads = c.threads;
  job.eval_every = c.scale.eval_every;
  job.target_accuracy = c.target_accuracy;
  job.codec = c.codec;
  job.mode = c.mode;
  job.async = c.async;
  job.faults = c.faults;
  return job;
}

}  // namespace

std::vector<std::size_t> TimedSelector::select(std::size_t round,
                                               std::size_t num_required) {
  const auto t0 = Clock::now();
  auto cohort = inner_->select(round, num_required);
  select_ms.push_back(ms_since(t0));
  return cohort;
}

void TimedSelector::report_round(
    std::size_t round,
    const std::vector<flips::fl::PartyFeedback>& feedback) {
  const auto t0 = Clock::now();
  inner_->report_round(round, feedback);
  report_ms.push_back(ms_since(t0));
}

void LayerObserver::on_party_feedback(
    std::size_t, const flips::fl::PartyFeedback&) {
  ++feedbacks;
}

void LayerObserver::on_arrival(std::size_t,
                               const flips::fl::ArrivalRecord&) {
  ++arrivals;
}

void LayerObserver::on_phase(std::size_t,
                             const flips::fl::PhaseRecord& record) {
  const auto i = static_cast<std::size_t>(record.phase);
  phase_s[i] += record.duration_s();
  ++phase_n[i];
}

void LayerObserver::on_retry(std::size_t, const flips::fl::RetryRecord&) {
  ++retries;
}

void LayerObserver::on_round_end(std::size_t round,
                                 const flips::fl::RoundRecord& record) {
  ++steps;
  dispatched += record.selected;
  responded += record.responded;
  dropped_stale += record.dropped_stale;
  crashed += record.crashed;
  retried += record.retried;
  backfilled += record.backfilled;
  up_bytes += record.upload_bytes;
  down_bytes += record.download_bytes;
  static flips::obs::Counter& misses =
      flips::obs::Registry::global().counter("flips_arena_misses_total");
  const std::uint64_t now = misses.value();
  if (round > kWarmupRounds) {
    arena_misses_after_warmup += now - misses_at_warmup_;
  }
  if (round >= kWarmupRounds) misses_at_warmup_ = now;
}

std::unique_ptr<flips::fl::FederationSession> build_session(
    const flips::bench::ExperimentConfig& config,
    flips::select::SelectorKind kind, std::uint64_t seed, SetupTimes& times,
    TimedSelector** timed) {
  // ---- data: synthetic non-IID federation + party fleet. ----
  auto t0 = Clock::now();
  flips::data::FederatedDataConfig dc;
  dc.spec = config.spec;
  dc.num_parties = config.scale.num_parties;
  dc.samples_per_party = config.scale.samples_per_party;
  dc.alpha = config.alpha;
  dc.test_per_class = 100;
  dc.seed = seed;
  auto fed = flips::data::build_federated_data(dc);

  flips::common::Rng profile_rng(seed ^ 0xBEEF);
  const bool fault_fleet = config.faults.enabled();
  const flips::net::FleetBuilder fleet(flips::net::FleetMix::senior_care());
  std::vector<flips::fl::Party> parties;
  std::vector<double> latencies;
  parties.reserve(fed.party_data.size());
  for (std::size_t p = 0; p < fed.party_data.size(); ++p) {
    flips::fl::PartyProfile profile;
    if (fault_fleet) {
      profile = flips::fl::PartyProfile::from_device(fleet.sample(profile_rng));
    } else {
      profile.speed_factor = speed_factor(profile_rng);
    }
    latencies.push_back(profile.speed_factor *
                        static_cast<double>(fed.party_data[p].size()));
    parties.emplace_back(p, std::move(fed.party_data[p]), profile);
  }
  times.data_s = seconds_since(t0);

  // ---- cluster: k-means over Hellinger-mapped label histograms. ----
  t0 = Clock::now();
  std::vector<flips::cluster::Point> points;
  points.reserve(fed.label_distributions.size());
  for (const auto& ld : fed.label_distributions) {
    auto p = flips::common::normalized(ld);
    for (auto& v : p) v = std::sqrt(v);
    points.push_back(std::move(p));
  }
  flips::cluster::KMeansConfig kc;
  kc.k = std::min(config.flips_clusters, points.size());
  kc.restarts = 3;
  flips::common::Rng cluster_rng(seed ^ 0xC1u);
  auto clusters = flips::cluster::kmeans(points, kc, cluster_rng);
  times.cluster_s = seconds_since(t0);

  // ---- selection. ----
  t0 = Clock::now();
  flips::select::SelectorContext ctx;
  ctx.num_parties = parties.size();
  ctx.seed = seed ^ 0x5E1Eu;
  ctx.cluster_of = std::move(clusters.assignments);
  ctx.num_clusters = kc.k;
  ctx.latencies = std::move(latencies);
  ctx.rounds_hint = config.scale.rounds;
  ctx.label_distributions = std::move(fed.label_distributions);
  std::unique_ptr<flips::fl::ParticipantSelector> selector =
      flips::select::make_selector(kind, ctx);
  if (timed != nullptr) {
    auto wrapper = std::make_unique<TimedSelector>(std::move(selector));
    *timed = wrapper.get();
    selector = std::move(wrapper);
  }
  times.selection_s = seconds_since(t0);

  // ---- fl: model + session. ----
  t0 = Clock::now();
  flips::common::Rng model_rng(seed ^ 0x30DEu);
  auto model =
      config.mlp_hidden > 0
          ? flips::ml::ModelFactory::mlp(config.spec.feature_dim,
                                         config.mlp_hidden,
                                         config.spec.num_classes, model_rng)
          : flips::ml::ModelFactory::logistic_regression(
                config.spec.feature_dim, config.spec.num_classes, model_rng);
  auto session = std::make_unique<flips::fl::FederationSession>(
      job_config(config, seed), std::move(parties),
      std::move(fed.global_test), std::move(model), std::move(selector));
  times.session_s = seconds_since(t0);
  return session;
}

std::uint64_t hash_parameters(const std::vector<double>& parameters) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double v : parameters) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

}  // namespace perfbench
