// The FLIPS selector (paper Algorithm 1): parties are grouped by label
// distribution once, before training (core::cluster_privately), and
// the grouping stays fixed for the job. Each round the Nr slots are
// spread evenly across clusters (rotating which clusters absorb the
// remainder), and within a cluster the least-often-picked parties go first: the
// cluster's members are shuffled with the selector's seed (so ties
// rotate) and partially sorted by selection count. Every member of
// every cluster is touched, so a round costs O(N) for N parties. This
// equalizes *label* representation — parties in small clusters are
// intentionally picked more often than parties in large ones. With
// over-provisioning on, the selector tracks the observed straggle rate
// and requests extra parties to compensate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "fl/selector.h"

namespace flips::select {

struct FlipsSelectorConfig {
  bool overprovision = true;
  std::uint64_t seed = 0x5E1E;
};

class FlipsSelector final : public fl::ParticipantSelector {
 public:
  FlipsSelector(std::vector<std::size_t> cluster_of,
                std::size_t num_clusters, const FlipsSelectorConfig& config);

  std::vector<std::size_t> select(std::size_t round,
                                  std::size_t num_required) override;
  void report_round(std::size_t round,
                    const std::vector<fl::PartyFeedback>& feedback) override;

  const char* name() const override { return "flips"; }

  double observed_straggle_rate() const { return straggle_rate_; }

 private:
  std::vector<std::size_t> pick_from_cluster(std::size_t cluster,
                                             std::size_t count);

  std::vector<std::size_t> cluster_of_;
  std::vector<std::vector<std::size_t>> members_;  ///< cluster -> parties
  std::vector<std::size_t> times_selected_;
  FlipsSelectorConfig config_;
  common::Rng rng_;
  double straggle_rate_ = 0.0;
};

}  // namespace flips::select
