// The benchmark's own statistics: sample summaries, the time-to-target
// family read off a run-averaged accuracy curve, the failure ratio, and
// small readers over a Prometheus text exposition (the format both
// obs::Registry::text_exposition() and the serving kMetrics frame
// return). Header-only and free of program state so
// tests/stats_test.cpp can pin every rule.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fl/job.h"

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when
/// empty.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The tail a timing is reported at: the highest percentile of a fixed
/// ladder that still leaves at least `min_beyond` samples above it, so
/// the figure is never one outlier.
struct TailPoint {
  double percentile = 0.0;  ///< e.g. 99.0; 0 when n is too small
  std::size_t rank = 0;     ///< 1-based nearest rank of the percentile
  std::size_t beyond = 0;   ///< samples ranked above it
};

inline TailPoint tail_point(std::size_t n, std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0, 97.0,
                                       95.0, 90.0, 80.0, 75.0, 50.0};
  for (const double p : kLadder) {
    // Nearest rank: the smallest rank covering p percent of the samples.
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n - rank >= min_beyond) return {p, rank, n - rank};
  }
  return {};
}

/// Value at tail_point(values.size()); nullopt when there are too few
/// samples for any ladder percentile.
inline std::optional<std::pair<TailPoint, double>> tail_value(
    std::vector<double> values, std::size_t min_beyond = 10) {
  const TailPoint tp = tail_point(values.size(), min_beyond);
  if (tp.rank == 0) return std::nullopt;
  std::sort(values.begin(), values.end());
  return std::make_pair(tp, values[tp.rank - 1]);
}

/// Per-round balanced accuracy averaged over several sessions' histories
/// (the paper averages runs; run_selector reads its table cells the same
/// way). Truncated to the shortest history.
inline std::vector<double> mean_accuracy_curve(
    const std::vector<std::vector<flips::fl::RoundRecord>>& histories) {
  if (histories.empty()) return {};
  std::size_t rounds = histories.front().size();
  for (const auto& h : histories) rounds = std::min(rounds, h.size());
  std::vector<double> curve(rounds, 0.0);
  for (const auto& h : histories) {
    for (std::size_t r = 0; r < rounds; ++r) {
      curve[r] += h[r].balanced_accuracy;
    }
  }
  for (double& a : curve) a /= static_cast<double>(histories.size());
  return curve;
}

/// 1-based index of the first round whose accuracy is at or above
/// `target`; nullopt when none is.
inline std::optional<std::size_t> first_round_at_or_above(
    const std::vector<double>& curve, double target) {
  for (std::size_t r = 0; r < curve.size(); ++r) {
    if (curve[r] >= target) return r + 1;
  }
  return std::nullopt;
}

/// Uplink plus downlink bytes of rounds 1..`rounds` (SecAgg set-up
/// traffic excluded, as in FlJobResult's up/down split).
inline std::uint64_t bytes_through_round(
    const std::vector<flips::fl::RoundRecord>& history, std::size_t rounds) {
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < std::min(rounds, history.size()); ++r) {
    total += history[r].upload_bytes + history[r].download_bytes;
  }
  return total;
}

/// Simulated clock after round `rounds`: the running sum of
/// round_time_s, which is how FlJobResult::time_to_target_s is taken.
inline double sim_seconds_through_round(
    const std::vector<flips::fl::RoundRecord>& history, std::size_t rounds) {
  double total = 0.0;
  for (std::size_t r = 0; r < std::min(rounds, history.size()); ++r) {
    total += history[r].round_time_s;
  }
  return total;
}

/// Failed or refused operations over attempted ones; an empty run
/// counts as wholly failed.
inline double failed_frac(std::size_t attempted, std::size_t failed) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(std::min(failed, attempted)) /
         static_cast<double>(attempted);
}

// ---- Prometheus text exposition readers. ----

/// One sample line: name, its label pairs, value.
struct Sample {
  std::string_view name;
  std::vector<std::pair<std::string_view, std::string_view>> labels;
  double value = 0.0;
};

/// Parses `name{k="v",...} value` (or `name value`); nullopt for
/// comments, blanks and lines that do not parse. Label values are
/// returned raw (the registry's label values here never need
/// unescaping).
inline std::optional<Sample> parse_sample(std::string_view line) {
  if (line.empty() || line[0] == '#') return std::nullopt;
  Sample s;
  const std::size_t name_end = line.find_first_of("{ ");
  if (name_end == std::string_view::npos) return std::nullopt;
  s.name = line.substr(0, name_end);
  std::size_t pos = name_end;
  if (line[pos] == '{') {
    const std::size_t close = line.find('}', pos);
    if (close == std::string_view::npos) return std::nullopt;
    std::string_view body = line.substr(pos + 1, close - pos - 1);
    while (!body.empty()) {
      const std::size_t eq = body.find("=\"");
      if (eq == std::string_view::npos) return std::nullopt;
      const std::size_t end_quote = body.find('"', eq + 2);
      if (end_quote == std::string_view::npos) return std::nullopt;
      s.labels.emplace_back(body.substr(0, eq),
                            body.substr(eq + 2, end_quote - eq - 2));
      body.remove_prefix(end_quote + 1);
      if (!body.empty() && body[0] == ',') body.remove_prefix(1);
    }
    pos = close + 1;
  }
  const std::size_t value_at = line.rfind(' ');
  if (value_at == std::string_view::npos || value_at < pos) {
    return std::nullopt;
  }
  const std::string_view text = line.substr(value_at + 1);
  if (text == "+Inf") {
    s.value = HUGE_VAL;
    return s;
  }
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), s.value);
  if (res.ec != std::errc()) return std::nullopt;
  return s;
}

using LabelFilter = std::vector<std::pair<std::string, std::string>>;

inline bool matches(const Sample& s, const LabelFilter& filter) {
  for (const auto& [key, value] : filter) {
    const bool found =
        std::any_of(s.labels.begin(), s.labels.end(), [&](const auto& l) {
          return l.first == key && l.second == value;
        });
    if (!found) return false;
  }
  return true;
}

template <typename Fn>
void for_each_sample(std::string_view text, Fn&& fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    if (const auto s = parse_sample(text.substr(pos, eol - pos))) fn(*s);
    pos = eol + 1;
  }
}

/// Sum of every `name` sample whose labels include all of `filter`
/// (0 when none match).
inline double sample_sum(std::string_view text, std::string_view name,
                         const LabelFilter& filter = {}) {
  double total = 0.0;
  for_each_sample(text, [&](const Sample& s) {
    if (s.name == name && matches(s, filter)) total += s.value;
  });
  return total;
}

/// Cumulative `<family>_bucket` counts of every label set matching
/// `filter`: series (its labels other than `le`) -> edge -> count.
using BucketSeries = std::map<std::string, std::map<double, double>>;

inline BucketSeries bucket_counts(std::string_view text,
                                  std::string_view family,
                                  const LabelFilter& filter = {}) {
  const std::string bucket_name = std::string(family) + "_bucket";
  BucketSeries out;
  for_each_sample(text, [&](const Sample& s) {
    if (s.name != bucket_name || !matches(s, filter)) return;
    std::string series;
    std::optional<double> edge;
    for (const auto& [key, value] : s.labels) {
      if (key != "le") {
        series.append(key).append("=").append(value).append(",");
      } else if (value == "+Inf") {
        edge = HUGE_VAL;
      } else {
        double e = 0.0;
        if (std::from_chars(value.data(), value.data() + value.size(), e)
                .ec == std::errc()) {
          edge = e;
        }
      }
    }
    if (edge) out[series][*edge] = s.value;
  });
  return out;
}

/// Samples at or below `edge`, summed over series. The exposition
/// lists only non-empty buckets, so each series carries the count of
/// its nearest listed edge below.
inline double cumulative_at(const BucketSeries& buckets, double edge) {
  double total = 0.0;
  for (const auto& [series, counts] : buckets) {
    auto it = counts.upper_bound(edge);
    if (it != counts.begin()) total += std::prev(it)->second;
  }
  return total;
}

/// Upper bucket edge holding quantile `q` of the samples recorded
/// between two snapshots (`after` minus `before`); nullopt when none
/// were. Resolution is one bucket.
inline std::optional<double> bucket_quantile(const BucketSeries& before,
                                             const BucketSeries& after,
                                             double q) {
  std::vector<double> edges;
  for (const auto* snapshot : {&before, &after}) {
    for (const auto& [series, counts] : *snapshot) {
      for (const auto& [edge, count] : counts) edges.push_back(edge);
    }
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  if (edges.empty()) return std::nullopt;
  const double total =
      cumulative_at(after, edges.back()) - cumulative_at(before, edges.back());
  if (total <= 0.0) return std::nullopt;
  for (const double edge : edges) {
    if (cumulative_at(after, edge) - cumulative_at(before, edge) >=
        q * total) {
      return edge;
    }
  }
  return edges.back();
}

}  // namespace perfbench
