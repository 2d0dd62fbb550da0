// The scenario-to-session builder: the one place an FL session is
// assembled from an ExperimentConfig (scenario/spec.h lowers a
// ScenarioSpec onto it). Stages, each on its own seed-salted stream:
// data + fleet, FLIPS's label-distribution clustering (in the TEE), the
// selector context, the model init, and the FlJobConfig lowering. The
// builder keeps no state: every build is fresh and the session owns its
// parties. Callers that replay one federation many times (the table
// grid, bench/common/experiment.cpp) cache build_federation() results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "data/federated.h"
#include "fl/session.h"
#include "net/codec.h"
#include "selection/factory.h"

namespace flips {

struct ExperimentConfig {
  /// Scale knobs, lowered from the ScenarioSpec keys parties, samples,
  /// rounds, runs and eval_every (to_experiment_config).
  struct Scale {
    std::size_t num_parties = 100;
    std::size_t samples_per_party = 80;
    std::size_t rounds = 100;
    std::size_t runs = 3;
    std::size_t eval_every = 2;
  };

  data::SyntheticSpec spec;
  double alpha = 0.3;
  double participation = 0.2;  ///< fraction of parties per round
  fl::ServerOpt server_opt = fl::ServerOpt::kFedYogi;
  double server_lr = 0.05;
  double prox_mu = 0.0;  ///< FedProx
  double straggler_rate = 0.0;
  double target_accuracy = 0.6;  ///< paper's per-dataset target
  Scale scale;
  std::uint64_t seed = 42;
  /// FLIPS's k; 0 = the DBI elbow picks it (Fig. 2). The paper's elbow
  /// finds 10 on its datasets; reduced-scale ones calibrate best at 20.
  std::size_t flips_clusters = 20;
  /// Local solver knobs (τ epochs; higher values amplify client drift,
  /// the non-IID pathology the paper studies).
  std::size_t local_epochs = 2;
  double local_lr = 0.05;
  /// Hidden width of the per-party MLP (0 = softmax regression): the
  /// paper's DNN retention effect needs a non-convex model.
  std::size_t mlp_hidden = 24;
  fl::PrivacyConfig privacy;  ///< aggregation-path privacy (default off)
  /// Stateful client algorithm (FedDyn / SCAFFOLD ablations).
  fl::ClientAlgo client_algo = fl::ClientAlgo::kSgd;
  /// Local-training worker threads per FL job (0 = hardware
  /// concurrency). Results are bit-identical for every value.
  std::size_t threads = 0;
  /// Wire codec for updates and the broadcast delta (kDense64
  /// reproduces the historical byte accounting; kQuant8/kTopK charge
  /// encoded sizes and run with error feedback — see fl/job.h).
  net::CodecConfig codec;
  /// Stepping discipline (fl/session.h): kSync = round barrier; kAsync
  /// = FedBuff buffered stepping, where `scale.rounds` counts server
  /// steps and `async` carries the buffer/staleness knobs.
  fl::FederationMode mode = fl::FederationMode::kSync;
  fl::AsyncConfig async;
  /// Fault plan (net/faults.h). When enabled() the fleet is sampled from
  /// the senior-care device mix, whose fault-rate and churn columns
  /// reach the party profiles.
  net::FaultConfig faults;
};

/// Stages 1 and 2 for one seed. The parties are shared so that one
/// cached federation can back several sessions without a copy.
struct Federation {
  std::shared_ptr<const std::vector<fl::Party>> parties;
  data::Dataset global_test;
  /// TiFL's profiling pass: latency proportional to per-round work.
  std::vector<double> latencies;
  std::vector<data::LabelDistribution> label_distributions;
  /// FLIPS's clustering of label_distributions: party -> cluster.
  std::vector<std::size_t> clusters;
  std::size_t num_clusters = 0;
};

/// Builds the data, the fleet and FLIPS's clustering: every party's
/// label histogram goes through core::cluster_privately (a self-attested
/// enclave, Hellinger space, k = config.flips_clusters or the DBI elbow
/// at 0, seed `seed` ^ 0xC1).
[[nodiscard]] Federation build_federation(const ExperimentConfig& config,
                                          std::uint64_t seed);

/// Stage 3: every selector's inputs over `federation`.
[[nodiscard]] select::SelectorContext selector_context(
    const ExperimentConfig& config, const Federation& federation,
    std::uint64_t seed);

/// Stages 4 and 5: a session over `federation` driven by `selector`.
/// `shared_pool` lets several sessions (interleave_sessions, the
/// server's tenants) contend for one worker pool; nullptr = the session
/// owns a pool of config.threads workers.
[[nodiscard]] std::unique_ptr<fl::FederationSession> make_session(
    const ExperimentConfig& config, Federation federation,
    std::unique_ptr<fl::ParticipantSelector> selector, std::uint64_t seed,
    common::ThreadPool* shared_pool = nullptr);

/// Every stage: a fresh session for `config` at `seed` driven by a
/// `kind` selector. Two calls with the same arguments give sessions
/// that share nothing and step bit-identically.
[[nodiscard]] std::unique_ptr<fl::FederationSession> make_session(
    const ExperimentConfig& config, select::SelectorKind kind,
    std::uint64_t seed, common::ThreadPool* shared_pool = nullptr);

}  // namespace flips
