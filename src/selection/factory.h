// Selector registry: every participant-selection strategy the paper
// compares (plus the pow-d and Fed-CBS extensions), built from one
// shared context describing the federation. The registry is
// string-keyed — `selector_names()` is the single source of truth the
// scenario layer (scenario/spec.cpp) validates `selector=`
// against, so adding a selector here automatically surfaces it on the
// flips_run CLI.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "data/synthetic.h"
#include "fl/selector.h"

namespace flips::select {

enum class SelectorKind {
  kRandom,
  kFlips,          ///< label-distribution clusters, least-selected first
  kOort,           ///< loss-utility explore/exploit (Oort, OSDI 21)
  kGradClus,       ///< per-round agglomerative gradient clustering
  kTifl,           ///< latency tiers (TiFL)
  kPowerOfChoice,  ///< pow-d loss-biased sampling
  kFedCbs,         ///< class-balance (QCID) greedy cohort
};

const char* to_string(SelectorKind kind);

struct SelectorContext {
  std::size_t num_parties = 0;
  std::uint64_t seed = 42;
  /// FLIPS inputs: party -> label-distribution cluster.
  std::vector<std::size_t> cluster_of;
  std::size_t num_clusters = 0;
  /// TiFL/Oort input: profiled per-party latency proxy.
  std::vector<double> latencies;
  /// Optional hint for explore/exploit schedules.
  std::size_t rounds_hint = 0;
  /// Fed-CBS input: per-party label histograms.
  std::vector<data::LabelDistribution> label_distributions;
};

[[nodiscard]] std::unique_ptr<fl::ParticipantSelector> make_selector(
    SelectorKind kind, const SelectorContext& context);

/// Every registered selector name, in registration order (stable —
/// CLI help and choice validation render it verbatim).
[[nodiscard]] const std::vector<std::string_view>& selector_names();

/// String-keyed lookup into the registry. Throws std::invalid_argument
/// on an unknown name, listing every registered name.
[[nodiscard]] SelectorKind selector_kind_from_name(std::string_view name);

/// String-keyed construction: selector_kind_from_name + make_selector.
[[nodiscard]] std::unique_ptr<fl::ParticipantSelector> make_selector(
    std::string_view name, const SelectorContext& context);

}  // namespace flips::select
