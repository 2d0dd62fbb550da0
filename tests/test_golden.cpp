// Behaviour fingerprints: a fixed matrix of tiny federations, each
// reduced to one 64-bit FNV-1a hash over the bytes of its final
// parameters and every round's accuracy, timing, byte counts and
// tallies. Thread-count and served-vs-in-process identity tests compare
// two runs of the same build; these hashes pin results across commits,
// so a refactor that shifts every run the same way still shows up.
// Most cells run one hand-built federation; the builder_* cells are
// built end to end by the session builder (scenario/builder.h), so they
// also pin its data, fleet, clustering, selector context, model init
// and job lowering.
//
// The expected hashes are keyed by compiler id and major version
// (FLIPS_GOLDEN_KEY, set by tests/CMakeLists.txt). The build is
// strict-FP throughout and uses no libm vector routines, and the
// multiversioned kernels give the same bits on every vector width, so
// neither the host CPU nor the build type matters: a gcc 12 Release,
// Debug, ASan/UBSan or TSan build checks the same table. Another
// compiler may still evaluate libm calls (log, sqrt, pow) at compile
// time where this one calls the library, so each toolchain keeps its
// own table. A toolchain with no recorded table skips. A mismatch
// prints the actual hash; an intended behaviour change is an edit to
// the table below, reviewed like any other diff.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"
#include "fl/session.h"
#include "scenario/spec.h"
#include "selection/factory.h"

#ifndef FLIPS_GOLDEN_KEY
#define FLIPS_GOLDEN_KEY "unknown"
#endif

namespace {

using flips::fl::FederationMode;
using flips::fl::FederationSession;
using flips::fl::FlJobConfig;
using flips::fl::FlJobResult;
using flips::fl::Party;
using flips::fl::PartyProfile;
using flips::select::SelectorKind;

// gcc 12, every build type (tier-1 is Release -O3).
const std::map<std::string_view, std::map<std::string_view, std::uint64_t>>
    kGolden = {
        {"GNU-12",
         {
             {"async_dense64", 0x885037ef5f3a3f2b},
             {"async_faults", 0x74d855d5b93067b2},
             {"async_faults_stragglers", 0x5db96b3a0cc3dc13},
             {"async_quant8_dp", 0x2b965e115eb7ad8f},
             {"builder_ecg_fedyogi_async_faults", 0x28bec44a8161e172},
             {"builder_femnist_fedavg", 0x8e662e0870807cda},
             {"select_flips", 0x43302124f18cf62a},
             {"select_oort", 0x626cca5cf6d07c41},
             {"select_random", 0x6170161611fb94aa},
             {"sync_deadline", 0xc8efccd847ddfc94},
             {"sync_dp", 0xb12edd77a749be7f},
             {"sync_drop_fraction", 0x2d305922aefa257a},
             {"sync_faults_quant8", 0x1765173b72a13b72},
             {"sync_fedavg_dense64", 0x0cb07976672b3709},
             {"sync_feddyn_topk", 0x897d7633d31c2936},
             {"sync_fedprox_quant8", 0xdd5adc0f97456985},
             {"sync_scaffold", 0x9839ba697c435070},
         }},
};

struct Federation {
  std::vector<Party> parties;
  flips::data::Dataset test;
  flips::select::SelectorContext context;
};

/// Twelve ECG parties with heterogeneous speed (1x..4x) and the
/// reliability columns the fault plan reads.
const Federation& federation() {
  static const Federation fed = [] {
    flips::data::FederatedDataConfig dc;
    dc.spec = flips::data::DatasetCatalog::ecg();
    dc.num_parties = 12;
    dc.samples_per_party = 40;
    dc.alpha = 0.3;
    dc.test_per_class = 30;
    dc.seed = 17;
    const auto data = flips::data::build_federated_data(dc);

    Federation f;
    for (std::size_t p = 0; p < data.party_data.size(); ++p) {
      PartyProfile profile;
      profile.speed_factor = 1.0 + static_cast<double>(p % 4);
      profile.fault_rate = 0.05;
      profile.mean_up_s = 2.0;
      profile.mean_down_s = 0.5;
      f.parties.emplace_back(p, data.party_data[p], profile);
    }
    f.test = data.global_test;

    std::vector<flips::cluster::Point> points;
    for (const auto& ld : data.label_distributions) {
      auto point = flips::common::normalized(ld);
      for (auto& v : point) v = std::sqrt(v);
      points.push_back(std::move(point));
    }
    flips::cluster::KMeansConfig kc;
    kc.k = 4;
    kc.restarts = 2;
    flips::common::Rng rng(0xC1);
    f.context.num_parties = f.parties.size();
    f.context.seed = 0x5E1E;
    f.context.cluster_of = flips::cluster::kmeans(points, kc, rng).assignments;
    f.context.num_clusters = kc.k;
    return f;
  }();
  return fed;
}

FlJobConfig base_config() {
  FlJobConfig config;
  config.rounds = 4;
  config.parties_per_round = 4;
  config.local.epochs = 2;
  config.local.batch_size = 16;
  config.local.sgd.learning_rate = 0.05;
  config.server.optimizer = flips::fl::ServerOpt::kFedYogi;
  config.server.learning_rate = 0.05;
  config.eval_every = 2;
  config.seed = 29;
  config.threads = 2;
  return config;
}

FlJobConfig async_config() {
  FlJobConfig config = base_config();
  config.mode = FederationMode::kAsync;
  config.rounds = 6;
  config.parties_per_round = 5;
  config.async.buffer_k = 2;
  config.async.max_staleness = 2;
  return config;
}

void enable_faults(FlJobConfig& config) {
  config.faults.churn = 1.0;
  config.faults.crash_rate = 0.15;
  config.faults.link_fault_rate = 0.1;
  config.faults.min_quorum = 0.75;
  config.faults.max_retries = 2;
}

struct Cell {
  FlJobConfig config;
  SelectorKind selector = SelectorKind::kFlips;
};

std::map<std::string, Cell> cells() {
  std::map<std::string, Cell> out;
  const auto sync = [&](const std::string& name,
                        const std::function<void(FlJobConfig&)>& tweak,
                        SelectorKind selector = SelectorKind::kFlips) {
    Cell cell{base_config(), selector};
    tweak(cell.config);
    out.emplace(name, cell);
  };
  const auto async = [&](const std::string& name,
                         const std::function<void(FlJobConfig&)>& tweak) {
    Cell cell{async_config(), SelectorKind::kFlips};
    tweak(cell.config);
    out.emplace(name, cell);
  };
  using flips::net::Codec;
  sync("sync_fedavg_dense64", [](FlJobConfig&) {});
  sync("sync_fedprox_quant8", [](FlJobConfig& c) {
    c.local.prox_mu = 0.01;
    c.codec.codec = Codec::kQuant8;
  });
  sync("sync_scaffold", [](FlJobConfig& c) {
    c.local.algo = flips::fl::ClientAlgo::kScaffold;
  });
  sync("sync_feddyn_topk", [](FlJobConfig& c) {
    c.local.algo = flips::fl::ClientAlgo::kFedDyn;
    c.codec.codec = Codec::kTopK;
    c.codec.topk_fraction = 0.2;
  });
  sync("sync_dp", [](FlJobConfig& c) {
    c.privacy.mechanism = flips::fl::PrivacyMechanism::kDp;
    c.privacy.dp.noise_multiplier = 0.5;
  });
  sync("sync_deadline", [](FlJobConfig& c) {
    c.stragglers.mode = flips::fl::StragglerMode::kDeadline;
    c.stragglers.deadline_s = 0.45;
  });
  sync("sync_drop_fraction",
       [](FlJobConfig& c) { c.stragglers.rate = 0.4; });
  sync("sync_faults_quant8", [](FlJobConfig& c) {
    enable_faults(c);
    c.codec.codec = Codec::kQuant8;
  });
  // Selector cells: a wider cohort over more rounds, so each policy's
  // picks (and its use of the round feedback) move the fingerprint.
  const auto wide = [](FlJobConfig& c) {
    c.rounds = 5;
    c.parties_per_round = 6;
  };
  sync("select_flips", wide);
  sync("select_random", wide, SelectorKind::kRandom);
  sync("select_oort", wide, SelectorKind::kOort);
  async("async_dense64", [](FlJobConfig&) {});
  async("async_quant8_dp", [](FlJobConfig& c) {
    c.codec.codec = Codec::kQuant8;
    c.privacy.mechanism = flips::fl::PrivacyMechanism::kDp;
    c.privacy.dp.noise_multiplier = 0.5;
  });
  async("async_faults", [](FlJobConfig& c) {
    c.faults.churn = 1.0;
    c.faults.crash_rate = 0.15;
  });
  async("async_faults_stragglers", [](FlJobConfig& c) {
    c.faults.churn = 1.0;
    c.faults.crash_rate = 0.15;
    c.stragglers.rate = 0.5;
  });
  return out;
}

/// Scenario cells for the session builder: a preset at tiny scale plus
/// `overrides`, with k = 4 so the clustering stage shapes the cohort.
std::map<std::string, flips::ScenarioSpec> builder_cells() {
  const auto scenario = [](std::string_view preset,
                           const std::vector<std::string_view>& overrides) {
    flips::ScenarioSpec spec = flips::scenario_preset(preset);
    spec.parties = 20;
    spec.samples_per_party = 24;
    spec.rounds = 6;
    spec.flips_clusters = 4;
    spec.threads = 2;
    spec.seed = 11;
    for (const std::string_view kv : overrides) {
      flips::apply_override(spec, kv);
    }
    return spec;
  };
  const std::vector<std::string_view> async_faults = {
      "mode=async", "codec=quant8", "churn=1", "fault_rate=0.1"};
  std::map<std::string, flips::ScenarioSpec> out;
  out.emplace("builder_femnist_fedavg", scenario("femnist-fedavg", {}));
  out.emplace("builder_ecg_fedyogi_async_faults",
              scenario("ecg-fedyogi", async_faults));
  return out;
}

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(T v) {
    bytes(&v, sizeof(v));
  }
};

std::uint64_t fingerprint(const FlJobResult& result) {
  Fnv1a f;
  f.bytes(result.final_parameters.data(),
          result.final_parameters.size() * sizeof(double));
  for (const auto& r : result.history) {
    f.value(r.round);
    f.value(r.balanced_accuracy);
    f.value(r.round_time_s);
    f.value(r.mean_train_loss);
    f.value(r.upload_bytes);
    f.value(r.download_bytes);
    f.value(r.selected);
    f.value(r.responded);
    f.value(r.dropped_stale);
    f.value(r.crashed);
    f.value(r.retried);
    f.value(r.backfilled);
    f.value(static_cast<std::uint8_t>(r.quorum_skipped));
  }
  return f.h;
}

/// Runs cell `name` to completion and fingerprints its result.
std::uint64_t run_cell(const std::string& name) {
  const auto builder = builder_cells();
  if (const auto it = builder.find(name); it != builder.end()) {
    const flips::ScenarioSpec& spec = it->second;
    auto session = flips::make_session(flips::to_experiment_config(spec),
                                       flips::selector_kind(spec), spec.seed);
    while (!session->done()) session->advance();
    return fingerprint(session->result());
  }
  const Federation& fed = federation();
  const Cell cell = cells().at(name);
  FederationSession session(
      cell.config, fed.parties, fed.test,
      [&] {
        flips::common::Rng rng(0x30DE);
        return flips::ml::ModelFactory::mlp(32, 8, 5, rng);
      }(),
      flips::select::make_selector(cell.selector, fed.context));
  while (!session.done()) session.advance();
  return fingerprint(session.result());
}

class Golden : public ::testing::TestWithParam<std::string> {};

TEST_P(Golden, FingerprintMatchesRecordedHash) {
  const std::uint64_t actual = run_cell(GetParam());

  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%016llx",
                static_cast<unsigned long long>(actual));
  const auto table = kGolden.find(FLIPS_GOLDEN_KEY);
  if (table == kGolden.end()) {
    GTEST_SKIP() << "no golden table for " << FLIPS_GOLDEN_KEY
                 << "; actual hash " << hex;
  }
  const auto expected = table->second.find(GetParam());
  ASSERT_NE(expected, table->second.end())
      << "no recorded hash for " << GetParam() << "; actual hash " << hex;
  EXPECT_EQ(expected->second, actual)
      << GetParam() << " fingerprint changed; actual hash " << hex;
}

std::vector<std::string> cell_names() {
  std::vector<std::string> names;
  for (const auto& [name, cell] : cells()) names.push_back(name);
  for (const auto& [name, spec] : builder_cells()) names.push_back(name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Cells, Golden, ::testing::ValuesIn(cell_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
