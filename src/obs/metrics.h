// Low-overhead metrics plane: counters, gauges, and fixed-boundary
// log-bucketed histograms registered by family{label=value} name.
//
// Hot-path discipline (the same contract as the PR-4 aggregation
// plane, audited by bench_micro_obs under an operator-new override):
//
//   * inc()/set()/add()/record() are lock-free, allocation-free
//     relaxed atomics.
//   * Registration (Registry::counter/gauge/histogram) takes a mutex
//     and allocates — do it once at construction time and keep the
//     returned pointer; instruments live as long as the registry and
//     are never deallocated or moved.
//
// Histograms use the double's own bit pattern as the bucket index
// (exponent + top `sub_bits` mantissa bits, HdrHistogram-style): fixed
// boundaries, 2^sub_bits buckets per power of two, explicit underflow/
// overflow buckets, O(1) record with no log() call. merge() and
// quantile() make the same instrument usable standalone (e.g. the
// load generator's bounded-memory latency tracking) as well as
// registered.
//
// Snapshots serialize as Prometheus text exposition — the payload of
// the serving plane's kMetrics frame — and prometheus_family_sum()
// parses one back, so client-side checks and tests round-trip through
// the exact wire format.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace flips::obs {

/// Monotone event counter: one relaxed atomic. value() is racy-read
/// exact only once writers quiesce, like any relaxed counter.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }

  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Double-valued level. set() stores, add() is a CAS loop; both are
/// bit-cast through one atomic word so readers never see a torn value.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) {
    bits_.store(std::bit_cast<std::uint64_t>(v), std::memory_order_relaxed);
  }

  void add(double delta) {
    std::uint64_t old = bits_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + delta);
    } while (
        !bits_.compare_exchange_weak(old, next, std::memory_order_relaxed));
  }

  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }

 private:
  std::atomic<std::uint64_t> bits_{std::bit_cast<std::uint64_t>(0.0)};
};

/// Fixed log-spaced bucket boundaries: 2^sub_bits buckets per power of
/// two between min and max (both floored to the bucket grid), plus an
/// underflow bucket (values < min, zero, negative, NaN) and an
/// overflow bucket (values >= max). Relative quantile error is bounded
/// by one bucket, i.e. a factor of 2^(1/2^sub_bits).
struct HistogramConfig {
  double min = 1e-9;      ///< must be a positive normal double
  double max = 1e6;       ///< must be > min
  unsigned sub_bits = 3;  ///< 8 buckets per octave (~9% resolution)

  bool operator==(const HistogramConfig&) const = default;
};

class Histogram {
 public:
  explicit Histogram(HistogramConfig config = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Lock-free, allocation-free: one relaxed fetch_add on the bucket
  /// plus a CAS-add to the running sum. No log() — the bucket index is
  /// the value's exponent/mantissa bits shifted into place.
  void record(double v) {
    buckets_[index(v)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t old = sum_bits_.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
      next = std::bit_cast<std::uint64_t>(std::bit_cast<double>(old) + v);
    } while (
        !sum_bits_.compare_exchange_weak(old, next, std::memory_order_relaxed));
  }

  /// Fold another histogram (same config — checked) into this one.
  void merge(const Histogram& other);

  /// Quantile estimate (q in [0,1]): geometric midpoint of the bucket
  /// holding the rank-q sample; min/max for the under/overflow buckets.
  /// Returns 0 when empty.
  double quantile(double q) const;

  std::uint64_t count() const;
  double sum() const;

  const HistogramConfig& config() const { return config_; }
  std::size_t bucket_count() const { return buckets_.size(); }
  std::uint64_t bucket_value(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive lower edge of bucket i (1..bucket_count()-2). Bucket 0
  /// is underflow (< lower_edge(1)); the last bucket is overflow
  /// (>= max, where max is floored to the grid).
  double lower_edge(std::size_t i) const;
  /// Exclusive upper edge of bucket i; +inf for the overflow bucket.
  double upper_edge(std::size_t i) const;

  std::size_t index(double v) const {
    if (!(v >= lowest_)) return 0;  // underflow / zero / negative / NaN
    if (v >= highest_) return buckets_.size() - 1;
    const std::uint64_t key = std::bit_cast<std::uint64_t>(v) >> shift_;
    return static_cast<std::size_t>(key - base_key_) + 1;
  }

 private:
  HistogramConfig config_;
  unsigned shift_ = 0;         ///< 52 - sub_bits
  std::uint64_t base_key_ = 0; ///< key of the floored min boundary
  double lowest_ = 0.0;        ///< min floored to the bucket grid
  double highest_ = 0.0;       ///< max floored to the bucket grid
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> sum_bits_{std::bit_cast<std::uint64_t>(0.0)};
};

using Labels = std::vector<std::pair<std::string, std::string>>;

/// Get-or-create instrument registry keyed by family name + label set.
/// Instruments are heap-held and never deallocated while the registry
/// lives, so returned pointers are stable and safe to cache. A family
/// name maps to exactly one instrument type (and, for histograms, one
/// config); a mismatch throws std::logic_error at registration time.
class Registry {
 public:
  // Out-of-line: the family map's node type is incomplete here.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry — what the serving plane snapshots for
  /// kMetrics and the instrumented components register into.
  static Registry& global();

  Counter& counter(std::string_view family, const Labels& labels = {});
  Gauge& gauge(std::string_view family, const Labels& labels = {});
  Histogram& histogram(std::string_view family, const Labels& labels = {},
                       HistogramConfig config = {});

  /// Prometheus text exposition of every registered instrument,
  /// families and label sets in lexicographic order. Histograms emit
  /// cumulative `_bucket{le=...}` samples for non-empty buckets plus
  /// le="+Inf", `_sum`, and `_count`.
  std::string text_exposition() const;

 private:
  struct Instrument;
  struct Family;

  Instrument& get_or_create(std::string_view family, const Labels& labels,
                            int type, const HistogramConfig* config);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
};

/// Sum of every sample of `family` (bare or labeled) in a Prometheus
/// text exposition. nullopt when the family has no samples. For
/// histogram families pass the `_count`/`_sum` sample name explicitly.
std::optional<double> prometheus_family_sum(std::string_view text,
                                            std::string_view family);

inline bool prometheus_has_family(std::string_view text,
                                  std::string_view family) {
  return prometheus_family_sum(text, family).has_value();
}

}  // namespace flips::obs
