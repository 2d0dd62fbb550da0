#include "selection/flips_selector.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace flips::select {

namespace {

/// Cap on the extra fraction requested against stragglers.
constexpr double kMaxOverprovision = 0.5;
/// EMA factor for the observed non-response rate.
constexpr double kStraggleEma = 0.3;

}  // namespace

FlipsSelector::FlipsSelector(std::vector<std::size_t> cluster_of,
                             std::size_t num_clusters,
                             const FlipsSelectorConfig& config)
    : cluster_of_(std::move(cluster_of)),
      times_selected_(cluster_of_.size(), 0),
      config_(config),
      rng_(config.seed) {
  std::size_t k = num_clusters;
  for (const std::size_t c : cluster_of_) k = std::max(k, c + 1);
  members_.assign(std::max<std::size_t>(k, 1), {});
  for (std::size_t p = 0; p < cluster_of_.size(); ++p) {
    members_[cluster_of_[p]].push_back(p);
  }
}

std::vector<std::size_t> FlipsSelector::pick_from_cluster(
    std::size_t cluster, std::size_t count) {
  auto& members = members_[cluster];
  count = std::min(count, members.size());
  if (count == 0) return {};
  // Least-selected first; ties broken randomly so same-count members
  // rotate instead of following construction order.
  rng_.shuffle(members);
  std::partial_sort(members.begin(),
                    members.begin() + static_cast<std::ptrdiff_t>(count),
                    members.end(),
                    [&](std::size_t a, std::size_t b) {
                      return times_selected_[a] < times_selected_[b];
                    });
  return {members.begin(),
          members.begin() + static_cast<std::ptrdiff_t>(count)};
}

std::vector<std::size_t> FlipsSelector::select(std::size_t round,
                                               std::size_t num_required) {
  const std::size_t n = cluster_of_.size();
  std::size_t want = std::min(num_required, n);
  if (want == 0 || members_.empty()) return {};

  if (config_.overprovision && straggle_rate_ > 0.0) {
    const double boost =
        std::min(kMaxOverprovision,
                 straggle_rate_ / std::max(1e-9, 1.0 - straggle_rate_));
    want = std::min(
        n, want + static_cast<std::size_t>(
                      std::ceil(boost * static_cast<double>(want))));
  }

  const std::size_t k = members_.size();
  const std::size_t base = want / k;
  const std::size_t remainder = want % k;

  std::vector<std::size_t> cohort;
  cohort.reserve(want);
  std::vector<bool> taken(n, false);
  // Rotate which clusters receive the remainder slot so no cluster is
  // structurally favoured across rounds.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t cluster = (round + i) % k;
    const std::size_t quota = base + (i < remainder ? 1 : 0);
    for (const std::size_t p : pick_from_cluster(cluster, quota)) {
      cohort.push_back(p);
      taken[p] = true;
    }
  }
  // Small clusters may not fill their quota; top up with the globally
  // least-selected remaining parties so Nr is honoured.
  if (cohort.size() < want) {
    std::vector<std::size_t> rest;
    rest.reserve(n - cohort.size());
    for (std::size_t p = 0; p < n; ++p) {
      if (!taken[p]) rest.push_back(p);
    }
    rng_.shuffle(rest);
    const std::size_t need = want - cohort.size();
    std::partial_sort(rest.begin(),
                      rest.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(need, rest.size())),
                      rest.end(),
                      [&](std::size_t a, std::size_t b) {
                        return times_selected_[a] < times_selected_[b];
                      });
    for (std::size_t i = 0; i < std::min(need, rest.size()); ++i) {
      cohort.push_back(rest[i]);
    }
  }

  for (const std::size_t p : cohort) ++times_selected_[p];
  return cohort;
}

void FlipsSelector::report_round(
    std::size_t round, const std::vector<fl::PartyFeedback>& feedback) {
  (void)round;
  if (feedback.empty()) return;
  std::size_t missed = 0;
  for (const auto& fb : feedback) {
    if (!fb.responded) ++missed;
  }
  const double rate =
      static_cast<double>(missed) / static_cast<double>(feedback.size());
  straggle_rate_ = (1.0 - kStraggleEma) * straggle_rate_ + kStraggleEma * rate;
}

}  // namespace flips::select
