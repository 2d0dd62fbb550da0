// Reproduces §5.1: the overhead of running label-distribution clustering
// inside a TEE. The paper measures 105.4 ms (AMD SEV) vs 100.5 ms
// (native) for 200 parties ≈ 5 % overhead.
//
// The enclave here is simulated, so the *mechanism* differs: we measure
// native clustering wall time, then report the enclave's accounted time
// with its calibrated overhead factor applied, plus the real marginal
// cost of the secure-channel framing (seal/open + attestation per party),
// which is the honestly measurable part of the simulation.
#include <chrono>
#include <iostream>

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

  // Native clustering baseline (same kernel the enclave runs).
  const auto t0 = Clock::now();
  (void)flips::cluster_label_distributions(
      fed.label_distributions, 10, flips::LdSpace::kProportions, spec.seed);
  const double native_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  // Full TEE path: attestation + secure channels + in-enclave clustering.
  auto enclave = std::make_shared<flips::tee::Enclave>(
      "flips-label-distribution-clustering-v1", 1.05);
  auto attestation = std::make_shared<flips::tee::AttestationServer>();
  attestation->trust_measurement(enclave->measurement());
  attestation->register_platform_key(enclave->platform_key());

  flips::ctrl::StreamingClusterConfig cc;
  cc.k_override = 10;
  flips::core::PrivateClusteringService service(cc, enclave, attestation);

  const auto t1 = Clock::now();
  for (std::size_t p = 0; p < fed.label_distributions.size(); ++p) {
    service.submit_label_distribution(p, fed.label_distributions[p]);
  }
  const double channel_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t1).count();
  service.finalize();

  const double enclave_raw_ms = enclave->raw_execution_seconds() * 1e3;
  const double enclave_sim_ms = enclave->simulated_execution_seconds() * 1e3;

  std::cout << "TEE clustering overhead (§5.1 reproduction, "
            << spec.parties << " parties)\n\n";
  printf("  native k-means clustering:          %8.2f ms\n", native_ms);
  printf("  in-enclave clustering (raw):        %8.2f ms\n", enclave_raw_ms);
  printf("  in-enclave clustering (simulated):  %8.2f ms  (factor %.3f)\n",
         enclave_sim_ms, enclave->overhead_factor());
  printf("  attestation + secure channels:      %8.2f ms  (%zu parties)\n",
         channel_ms, fed.label_distributions.size());
  printf("\n  simulated TEE overhead: %.1f %%   (paper: 105.4 vs 100.5 ms "
         "= 4.9 %% on AMD SEV)\n",
         100.0 * (enclave->overhead_factor() - 1.0));
  return 0;
}
