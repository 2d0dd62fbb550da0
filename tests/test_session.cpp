// FederationSession API: step-wise advance() round numbering,
// observer callback ordering under a 4-thread worker pool, party
// ownership semantics, and the multi-tenant isolation contract: two
// unequal-length sessions interleaved on one shared worker pool stay
// bit-identical to solo execution.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>

#include "cluster/kmeans.h"
#include "common/stats.h"
#include "data/federated.h"
#include "fl/session.h"
#include "selection/factory.h"

namespace {

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

TinyFederation build_tiny(std::size_t num_parties, double alpha,
                          std::size_t clusters, std::uint64_t seed) {
  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ecg();
  dc.num_parties = num_parties;
  dc.samples_per_party = 40;
  dc.alpha = alpha;
  dc.test_per_class = 40;
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
  fed.context.cluster_of =
      flips::cluster::kmeans(points, kc, rng).assignments;
  fed.context.num_clusters = kc.k;
  return fed;
}

FlJobConfig tiny_config(std::size_t rounds, std::size_t nr,
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
  return config;
}

flips::ml::Sequential tiny_model(std::uint64_t seed) {
  flips::common::Rng rng(seed ^ 0x30DE);
  return flips::ml::ModelFactory::mlp(32, 8, 5, rng);
}

void expect_same_result(const FlJobResult& a, const FlJobResult& b) {
  EXPECT_EQ(a.final_parameters, b.final_parameters);
  EXPECT_EQ(a.peak_accuracy, b.peak_accuracy);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.upload_bytes, b.upload_bytes);
  EXPECT_EQ(a.download_bytes, b.download_bytes);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.fairness.jain_index, b.fairness.jain_index);
  EXPECT_EQ(a.coverage_round, b.coverage_round);
  EXPECT_EQ(a.rounds_to_target, b.rounds_to_target);
  EXPECT_EQ(a.time_to_target_s, b.time_to_target_s);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t r = 0; r < a.history.size(); ++r) {
    EXPECT_EQ(a.history[r].balanced_accuracy,
              b.history[r].balanced_accuracy);
    EXPECT_EQ(a.history[r].mean_train_loss, b.history[r].mean_train_loss);
    EXPECT_EQ(a.history[r].round_time_s, b.history[r].round_time_s);
    EXPECT_EQ(a.history[r].selected, b.history[r].selected);
    EXPECT_EQ(a.history[r].responded, b.history[r].responded);
    EXPECT_EQ(a.history[r].upload_bytes, b.history[r].upload_bytes);
    EXPECT_EQ(a.history[r].download_bytes, b.history[r].download_bytes);
  }
}

/// advance() numbers rounds from 1, runs exactly config.rounds of
/// them, and refuses to step a finished session.
TEST(FederationSession, AdvanceNumbersRoundsAndThrowsWhenDone) {
  const auto fed = build_tiny(14, 0.3, 4, 91);
  const auto config = tiny_config(8, 4, 91);
  FederationSession session(
      config, fed.parties, fed.test, tiny_model(91),
      flips::select::make_selector(flips::select::SelectorKind::kFlips,
                                   fed.context));
  std::size_t stepped = 0;
  while (!session.done()) {
    const RoundRecord& record = session.advance();
    EXPECT_EQ(record.round, ++stepped);
  }
  EXPECT_EQ(stepped, config.rounds);
  EXPECT_EQ(session.result().history.size(), config.rounds);
  EXPECT_THROW(session.advance(), std::logic_error);
}

/// result() is a snapshot: calling it mid-run must not perturb the
/// remaining rounds.
TEST(FederationSession, MidRunResultSnapshotIsNonDestructive) {
  const auto fed = build_tiny(10, 0.3, 3, 17);
  const auto config = tiny_config(6, 3, 17);

  FederationSession plain(config, fed.parties, fed.test, tiny_model(17),
                          flips::select::make_selector(
                              flips::select::SelectorKind::kRandom,
                              fed.context));
  while (!plain.done()) plain.advance();

  FederationSession probed(config, fed.parties, fed.test, tiny_model(17),
                           flips::select::make_selector(
                               flips::select::SelectorKind::kRandom,
                               fed.context));
  while (!probed.done()) {
    probed.advance();
    const FlJobResult snapshot = probed.result();
    EXPECT_EQ(snapshot.history.size(), probed.rounds_completed());
  }
  expect_same_result(plain.result(), probed.result());
}

/// Owning sessions must not dangle when the source vector dies — the
/// bug class the legacy const-ref member invited.
TEST(FederationSession, OwnedPartiesSurviveSourceDestruction) {
  auto fed = build_tiny(10, 0.3, 3, 23);
  const auto config = tiny_config(4, 3, 23);

  auto session = [&] {
    std::vector<Party> doomed = fed.parties;  // session takes a copy
    return std::make_unique<FederationSession>(
        config, std::move(doomed), fed.test, tiny_model(23),
        flips::select::make_selector(flips::select::SelectorKind::kRandom,
                                     fed.context));
  }();

  FederationSession reference(config, fed.parties, fed.test,
                              tiny_model(23),
                              flips::select::make_selector(
                                  flips::select::SelectorKind::kRandom,
                                  fed.context));
  while (!session->done()) session->advance();
  while (!reference.done()) reference.advance();
  expect_same_result(reference.result(), session->result());
}

/// Records the observer event stream for ordering checks.
struct EventLog final : flips::fl::RoundObserver {
  struct Event {
    char kind;  ///< 'b'egin / 'p'arty / 'e'nd
    std::size_t round;
  };
  std::vector<Event> events;
  int* sequence = nullptr;      ///< shared registration-order probe
  std::vector<int> seen_order;  ///< value of *sequence at each begin

  void on_round_begin(std::size_t round) override {
    if (sequence != nullptr) seen_order.push_back((*sequence)++);
    events.push_back({'b', round});
  }
  void on_party_feedback(std::size_t round,
                         const flips::fl::PartyFeedback& fb) override {
    EXPECT_TRUE(fb.party_id < 1000u);
    events.push_back({'p', round});
  }
  void on_round_end(std::size_t round, const RoundRecord& record) override {
    EXPECT_EQ(record.round, round);
    events.push_back({'e', round});
  }
};

/// Observer contract under a threaded pool: callbacks fire on the
/// stepping thread, strictly begin → per-party (cohort size of them) →
/// end per round, and multiple observers fire in registration order.
TEST(FederationSession, ObserverOrderingUnderFourThreads) {
  const auto fed = build_tiny(12, 0.3, 4, 37);
  auto config = tiny_config(5, 4, 37);
  config.threads = 4;

  FederationSession session(config, fed.parties, fed.test, tiny_model(37),
                            flips::select::make_selector(
                                flips::select::SelectorKind::kFlips,
                                fed.context));
  int sequence = 0;
  EventLog first;
  EventLog second;
  first.sequence = &sequence;
  second.sequence = &sequence;
  session.add_observer(&first);
  session.add_observer(&second);

  while (!session.done()) session.advance();

  for (const EventLog* log : {&first, &second}) {
    std::size_t i = 0;
    const auto& events = log->events;
    for (std::size_t round = 1; round <= config.rounds; ++round) {
      ASSERT_LT(i, events.size());
      EXPECT_EQ(events[i].kind, 'b');
      EXPECT_EQ(events[i].round, round);
      ++i;
      std::size_t parties = 0;
      while (i < events.size() && events[i].kind == 'p') {
        EXPECT_EQ(events[i].round, round);
        ++parties;
        ++i;
      }
      EXPECT_EQ(parties, session.result().history[round - 1].selected);
      ASSERT_LT(i, events.size());
      EXPECT_EQ(events[i].kind, 'e');
      EXPECT_EQ(events[i].round, round);
      ++i;
    }
    EXPECT_EQ(i, events.size());
  }
  // Registration order: within every round-begin, `first` must tick
  // the shared counter before `second` (even sequence values).
  ASSERT_EQ(first.seen_order.size(), second.seen_order.size());
  for (std::size_t r = 0; r < first.seen_order.size(); ++r) {
    EXPECT_EQ(first.seen_order[r] + 1, second.seen_order[r]);
  }
}

/// Records phase telemetry (fl/observer.h on_phase) for the emission
/// contract checks.
struct PhaseLog final : flips::fl::RoundObserver {
  struct Entry {
    std::size_t round;
    flips::fl::SessionPhase phase;
  };
  std::vector<Entry> phases;
  std::vector<std::size_t> phases_at_round_end;

  void on_phase(std::size_t round,
                const flips::fl::PhaseRecord& record) override {
    EXPECT_LE(record.start_ns, record.end_ns);
    EXPECT_GE(record.sim_time_s, 0.0);
    phases.push_back({round, record.phase});
  }
  void on_round_end(std::size_t round, const RoundRecord& record) override {
    EXPECT_EQ(record.round, round);
    phases_at_round_end.push_back(phases.size());
  }
};

/// Sync mode: every round emits exactly the five phases in pipeline
/// order — select → train_cohort → fold → server_step → eval — and all
/// of a round's phases precede its on_round_end.
TEST(FederationSession, SyncRoundsEmitFivePhasesInOrder) {
  using flips::fl::SessionPhase;
  const auto fed = build_tiny(10, 0.3, 3, 41);
  const auto config = tiny_config(4, 3, 41);

  FederationSession session(config, fed.parties, fed.test, tiny_model(41),
                            flips::select::make_selector(
                                flips::select::SelectorKind::kFlips,
                                fed.context));
  PhaseLog log;
  session.add_observer(&log);
  while (!session.done()) session.advance();

  ASSERT_EQ(log.phases.size(),
            flips::fl::kNumSessionPhases * config.rounds);
  for (std::size_t round = 1; round <= config.rounds; ++round) {
    for (std::size_t k = 0; k < flips::fl::kNumSessionPhases; ++k) {
      const auto& entry =
          log.phases[(round - 1) * flips::fl::kNumSessionPhases + k];
      EXPECT_EQ(entry.round, round);
      EXPECT_EQ(entry.phase, static_cast<SessionPhase>(k));
    }
    // All of round r's phases fired before its on_round_end.
    ASSERT_LT(round - 1, log.phases_at_round_end.size());
    EXPECT_EQ(log.phases_at_round_end[round - 1],
              flips::fl::kNumSessionPhases * round);
  }
}

/// Async mode maps its event loop onto the same phase vocabulary:
/// never kSelect (selection happens at dispatch refill), but every
/// other phase appears, and each server step closes with kEval.
TEST(FederationSession, AsyncStepsEmitPhasesWithoutSelect) {
  using flips::fl::SessionPhase;
  const auto fed = build_tiny(10, 0.3, 3, 43);
  auto config = tiny_config(8, 3, 43);
  config.mode = flips::fl::FederationMode::kAsync;
  config.async.buffer_k = 2;
  config.async.max_staleness = 4;

  FederationSession session(config, fed.parties, fed.test, tiny_model(43),
                            flips::select::make_selector(
                                flips::select::SelectorKind::kFlips,
                                fed.context));
  PhaseLog log;
  session.add_observer(&log);
  while (!session.done()) session.advance();

  std::array<std::size_t, flips::fl::kNumSessionPhases> seen{};
  for (const auto& entry : log.phases) {
    ASSERT_GE(entry.round, 1u);
    seen[static_cast<std::size_t>(entry.phase)]++;
  }
  EXPECT_EQ(seen[static_cast<std::size_t>(SessionPhase::kSelect)], 0u);
  EXPECT_GT(seen[static_cast<std::size_t>(SessionPhase::kTrainCohort)], 0u);
  EXPECT_GT(seen[static_cast<std::size_t>(SessionPhase::kFold)], 0u);
  EXPECT_GT(seen[static_cast<std::size_t>(SessionPhase::kServerStep)], 0u);
  EXPECT_GT(seen[static_cast<std::size_t>(SessionPhase::kEval)], 0u);
}

/// Interleaving sessions over one shared worker pool must leave every
/// session's result bit-identical to running it alone — the
/// multi-tenant isolation contract. The lengths are uneven, so the
/// longer session keeps stepping after the shorter one finishes.
TEST(FederationSession, SharedWorkersInterleavedBitIdenticalToSolo) {
  const auto fed_a = build_tiny(12, 0.2, 4, 101);
  const auto fed_b = build_tiny(10, 0.5, 3, 202);

  auto config_a = tiny_config(6, 4, 101);
  auto config_b = tiny_config(9, 3, 202);  // uneven lengths on purpose
  config_b.codec.codec = flips::net::Codec::kQuant8;

  auto make_a = [&](flips::common::ThreadPool* pool) {
    return std::make_unique<FederationSession>(
        config_a, fed_a.parties, fed_a.test, tiny_model(101),
        flips::select::make_selector(flips::select::SelectorKind::kFlips,
                                     fed_a.context),
        pool);
  };
  auto make_b = [&](flips::common::ThreadPool* pool) {
    return std::make_unique<FederationSession>(
        config_b, fed_b.parties, fed_b.test, tiny_model(202),
        flips::select::make_selector(flips::select::SelectorKind::kRandom,
                                     fed_b.context),
        pool);
  };

  // Solo references (own pools, default threads).
  auto solo_a = make_a(nullptr);
  auto solo_b = make_b(nullptr);
  while (!solo_a->done()) solo_a->advance();
  while (!solo_b->done()) solo_b->advance();

  // Interleaved round-robin over one shared 4-worker pool.
  flips::common::ThreadPool workers(4);
  auto a = make_a(&workers);
  auto b = make_b(&workers);
  std::size_t stepped = 0;
  while (!a->done() || !b->done()) {
    for (auto* session : {a.get(), b.get()}) {
      if (session->done()) continue;
      session->advance();
      ++stepped;
    }
  }
  EXPECT_EQ(stepped, config_a.rounds + config_b.rounds);

  expect_same_result(solo_a->result(), a->result());
  expect_same_result(solo_b->result(), b->result());
}

}  // namespace
