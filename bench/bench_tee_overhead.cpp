// Reproduces §5.1: the overhead of running label-distribution clustering
// inside a TEE. The paper measures 105.4 ms (AMD SEV) vs 100.5 ms
// (native) for 200 parties ≈ 5 % overhead.
//
// The enclave here is simulated, so the *mechanism* differs: we measure
// native clustering wall time, then report the enclave's accounted time
// with its calibrated overhead factor applied, plus the real marginal
// cost of the secure-channel framing (seal/open + attestation per party),
// which is the honestly measurable part of the simulation. Both arms
// run the same work: k-means over the same Hellinger points with the
// same k, restarts and stream, so their assignments must agree (the
// last line says whether they do).
#include <chrono>
#include <iostream>
#include <vector>

#include "common/scenario.h"
#include "core/private_clustering.h"
#include "data/federated.h"

int main(int argc, char** argv) {
  flips::ScenarioSpec defaults;
  defaults.parties = 200;
  const auto spec = flips::parse_scenario_args(argc, argv, defaults).spec;

  flips::data::FederatedDataConfig dc;
  dc.spec = flips::data::DatasetCatalog::ham10000();
  dc.num_parties = spec.parties;
  dc.samples_per_party = 120;
  dc.alpha = 0.3;
  dc.seed = spec.seed;
  const auto fed = flips::data::build_federated_data(dc);

  using Clock = std::chrono::steady_clock;
  flips::core::PrivateClusteringConfig cc;
  cc.k = 10;
  cc.seed = spec.seed;

  // Native clustering baseline: the kernel the enclave runs, on the
  // same points, k, restarts and stream.
  std::vector<flips::cluster::Point> points;
  for (const auto& ld : fed.label_distributions) {
    points.push_back(flips::core::hellinger_point(ld));
  }
  const auto t0 = Clock::now();
  flips::cluster::KMeansConfig kc;
  kc.k = cc.k;
  kc.restarts = cc.restarts;
  flips::common::Rng rng(cc.seed);
  const auto native = flips::cluster::kmeans(points, kc, rng);
  const double native_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Full TEE path: attestation + secure channels + in-enclave
  // clustering. The enclave's ledger times the clustering; the rest of
  // the call is the per-party attestation and sealed channel.
  flips::core::AttestedEnclave attested;
  const auto t1 = Clock::now();
  const bool agree =
      flips::core::cluster_privately(cc, fed.label_distributions,
                                     attested.enclave, attested.attestation)
          .assignments == native.assignments;
  const double total_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count();

  const flips::tee::Enclave& enclave = attested.enclave;
  const double enclave_raw_ms = enclave.raw_execution_seconds() * 1e3;
  const double enclave_sim_ms = enclave.simulated_execution_seconds() * 1e3;
  const double channel_ms = total_ms - enclave_raw_ms;

  std::cout << "TEE clustering overhead (§5.1 reproduction, "
            << spec.parties << " parties)\n\n";
  printf("  native k-means clustering:          %8.2f ms\n", native_ms);
  printf("  in-enclave clustering (raw):        %8.2f ms\n", enclave_raw_ms);
  printf("  in-enclave clustering (simulated):  %8.2f ms  (factor %.3f)\n",
         enclave_sim_ms, enclave.overhead_factor());
  printf("  attestation + secure channels:      %8.2f ms  (%zu parties)\n",
         channel_ms, fed.label_distributions.size());
  printf("\n  simulated TEE overhead: %.1f %%   (paper: 105.4 vs 100.5 ms "
         "= 4.9 %% on AMD SEV)\n",
         100.0 * (enclave.overhead_factor() - 1.0));
  printf("  native and in-enclave assignments agree: %s\n",
         agree ? "yes" : "NO");
  return 0;
}
