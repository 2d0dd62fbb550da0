#include "scenario/builder.h"

#include <algorithm>
#include <utility>

#include "core/private_clustering.h"
#include "ml/model.h"
#include "net/device.h"

namespace flips {

namespace {

fl::FlJobConfig make_job_config(const ExperimentConfig& config,
                                std::uint64_t seed) {
  fl::FlJobConfig job;
  job.rounds = config.scale.rounds;
  job.parties_per_round = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             config.participation *
             static_cast<double>(config.scale.num_parties)));
  job.local.epochs = config.local_epochs;
  job.local.batch_size = 32;
  job.local.sgd.learning_rate = config.local_lr;
  job.local.sgd.lr_decay_factor = 0.5;
  job.local.sgd.lr_decay_rounds = 20;
  job.local.prox_mu = config.prox_mu;
  job.server.optimizer = config.server_opt;
  job.server.learning_rate = config.server_opt == fl::ServerOpt::kFedAvg
                                 ? 1.0
                                 : config.server_lr;
  job.stragglers.rate = config.straggler_rate;
  job.privacy = config.privacy;
  job.local.algo = config.client_algo;
  job.seed = seed;
  job.threads = config.threads;
  job.eval_every = config.scale.eval_every;
  job.target_accuracy = config.target_accuracy;
  job.codec = config.codec;
  job.mode = config.mode;
  job.async = config.async;
  job.faults = config.faults;
  return job;
}

}  // namespace

Federation build_federation(const ExperimentConfig& config,
                            std::uint64_t seed) {
  data::FederatedDataConfig dc;
  dc.spec = config.spec;
  dc.num_parties = config.scale.num_parties;
  dc.samples_per_party = config.scale.samples_per_party;
  dc.alpha = config.alpha;
  dc.test_per_class = 100;  // keep per-label eval noise low
  dc.seed = seed;
  auto data = data::build_federated_data(dc);

  Federation out;
  common::Rng profile_rng(seed ^ 0xBEEF);
  // Under a fault plan the fleet comes from the senior-care device mix,
  // so the fault-rate and churn columns reach the fault plan.
  // A fault-free fleet has only speed factors: 60 % nominal devices,
  // 30 % 2× slower, 10 % 4× slower (TiFL/Oort react to these).
  const bool fault_fleet = config.faults.enabled();
  const net::FleetBuilder fleet(net::FleetMix::senior_care());
  std::vector<fl::Party> parties;
  parties.reserve(data.party_data.size());
  for (std::size_t p = 0; p < data.party_data.size(); ++p) {
    fl::PartyProfile profile;
    if (fault_fleet) {
      profile = fl::PartyProfile::from_device(fleet.sample(profile_rng));
    } else {
      const double u = profile_rng.uniform();
      profile.speed_factor = u < 0.6 ? 1.0 : (u < 0.9 ? 2.0 : 4.0);
    }
    out.latencies.push_back(profile.speed_factor *
                            static_cast<double>(data.party_data[p].size()));
    parties.emplace_back(p, std::move(data.party_data[p]), profile);
  }
  out.parties =
      std::make_shared<const std::vector<fl::Party>>(std::move(parties));
  out.global_test = std::move(data.global_test);

  // FLIPS's clustering, inside the enclave (§3.4).
  core::PrivateClusteringConfig cc;
  cc.k = config.flips_clusters;
  cc.seed = seed ^ 0xC1u;
  auto clustering = core::cluster_privately(cc, data.label_distributions);
  out.clusters = std::move(clustering.assignments);
  out.num_clusters = clustering.centroids.size();
  out.label_distributions = std::move(data.label_distributions);
  return out;
}

select::SelectorContext selector_context(const ExperimentConfig& config,
                                         const Federation& federation,
                                         std::uint64_t seed) {
  select::SelectorContext ctx;
  ctx.num_parties = federation.parties->size();
  ctx.seed = seed ^ 0x5E1Eu;
  ctx.cluster_of = federation.clusters;
  ctx.num_clusters = federation.num_clusters;
  ctx.latencies = federation.latencies;
  ctx.rounds_hint = config.scale.rounds;
  ctx.label_distributions = federation.label_distributions;
  return ctx;
}

std::unique_ptr<fl::FederationSession> make_session(
    const ExperimentConfig& config, Federation federation,
    std::unique_ptr<fl::ParticipantSelector> selector, std::uint64_t seed,
    common::ThreadPool* shared_pool) {
  common::Rng model_rng(seed ^ 0x30DEu);
  auto model = config.mlp_hidden > 0
                   ? ml::ModelFactory::mlp(config.spec.feature_dim,
                                           config.mlp_hidden,
                                           config.spec.num_classes, model_rng)
                   : ml::ModelFactory::logistic_regression(
                         config.spec.feature_dim, config.spec.num_classes,
                         model_rng);
  return std::make_unique<fl::FederationSession>(
      make_job_config(config, seed), std::move(federation.parties),
      std::move(federation.global_test), std::move(model),
      std::move(selector), shared_pool);
}

std::unique_ptr<fl::FederationSession> make_session(
    const ExperimentConfig& config, select::SelectorKind kind,
    std::uint64_t seed, common::ThreadPool* shared_pool) {
  Federation federation = build_federation(config, seed);
  auto selector =
      select::make_selector(kind, selector_context(config, federation, seed));
  return make_session(config, std::move(federation), std::move(selector),
                      seed, shared_pool);
}

}  // namespace flips
