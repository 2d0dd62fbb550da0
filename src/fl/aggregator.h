// Server-side aggregation plane.
//
// BufferArena leases fixed-dim delta buffers to the round loop and
// takes them back when the round is over, so the steady-state round
// loop performs zero heap allocations on the aggregation path (the
// property bench_micro_aggregate's allocation counter pins).
//
// Aggregator replaces the collect-then-fold pattern
// (`std::vector<LocalUpdate>` + `aggregate_updates`): the stepping
// thread adds each update by reference to its leased buffer (no copy)
// in fold order, and finalize() folds them all in one sweep of a
// register-blocked fused weighted-axpy kernel that processes up to 8
// party rows per accumulator pass — the same per-coordinate
// left-to-right addition chain as a one-party-at-a-time fold, so the
// result is bit-identical to aggregate_updates and, because workers
// never touch the aggregator, to every thread count (the invariant
// test_fl_job asserts). Strict FP: this file must never build with
// -ffast-math.
#pragma once

#include <cstddef>
#include <mutex>
#include <vector>

namespace flips::fl {

/// Thread-safe pool of reusable `std::vector<double>` buffers. Buffers
/// move in and out of the pool (no copies); after one warm-up round the
/// lease/release cycle allocates nothing as long as the requested dim
/// does not grow.
class BufferArena {
 public:
  /// Leases a buffer resized to `dim` (contents unspecified).
  [[nodiscard]] std::vector<double> lease(std::size_t dim);

  /// Returns a buffer to the pool. Empty vectors are dropped.
  void release(std::vector<double> buffer);

  /// Buffers currently parked in the pool (diagnostics / tests).
  std::size_t pooled() const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::vector<double>> free_;
};

/// Weighted-mean aggregator over one server step's updates, run on the
/// stepping thread only (it holds no lock).
///
/// Protocol per step:
///   begin_round(dim);
///   add(weight, delta)   — once per contributing update, in fold order
///                          (sync: cohort slot order; async: arrival
///                          order); delta.size() must equal dim;
///   finalize()           — once, after the last add().
///
/// add() only records the row: finalize() folds every row in add order
/// through one fold kernel sweep and divides by the total weight. Added
/// buffers are borrowed: they must stay alive and unmodified until
/// finalize() returns (moving the vector keeps its buffer).
class Aggregator {
 public:
  /// Starts a step. The accumulator and row tables are reused across
  /// steps (no steady-state allocation once the update count and dim
  /// have peaked).
  void begin_round(std::size_t dim);

  /// Records one weighted delta. Throws std::invalid_argument on a
  /// dimension mismatch (mixed-dim updates silently shrank under the
  /// old max-padding aggregate_updates — rejected here instead).
  void add(double weight, const std::vector<double>& delta);

  /// Folds the recorded rows in add order and returns the weighted mean
  /// (empty when nothing was added). The reference is valid until the
  /// next begin_round.
  [[nodiscard]] std::vector<double>& finalize();

  /// Updates added this step.
  std::size_t contributions() const { return rows_.size(); }
  /// Sum and maximum of the added weights, summed in add order (the
  /// weighted mean's sensitivity to one update, for DP noise).
  double total_weight() const { return total_weight_; }
  double max_weight() const { return max_weight_; }

 private:
  std::size_t dim_ = 0;
  std::vector<double> acc_;
  std::vector<const double*> rows_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  double max_weight_ = 0.0;
};

}  // namespace flips::fl
