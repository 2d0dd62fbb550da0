// Epoch-versioned snapshot of the control plane's clustering state.
// Consumers (select::FlipsSelector::consume, typically fed by a
// ctrl::ReclusterObserver's epoch sink) compare `epoch` against the
// last one they consumed and rebuild their derived structures only
// when it advances — assignments within one epoch are stable for
// existing parties (late joiners are appended incrementally without
// bumping the epoch).
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"

namespace flips::ctrl {

struct MembershipView {
  /// 0 = no clustering has been built yet (cluster_of is empty).
  std::uint64_t epoch = 0;
  std::size_t k = 0;
  /// party id -> cluster, dense over [0, max submitted id]. Every entry
  /// is < k whenever epoch > 0 (ids that never submitted get a
  /// deterministic hash-spread placeholder, never a sentinel).
  std::vector<std::size_t> cluster_of;
  std::vector<cluster::Point> centroids;
};

}  // namespace flips::ctrl
