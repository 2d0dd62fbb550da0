// Server-side streaming aggregation plane.
//
// BufferArena leases fixed-dim delta buffers to the round loop and
// takes them back when the round is over, so the steady-state round
// loop performs zero heap allocations on the aggregation path (the
// property bench_micro_aggregate's allocation counter pins).
//
// StreamingAggregator replaces the collect-then-fold pattern
// (`std::vector<LocalUpdate>` + `aggregate_updates`): workers submit
// each party's weighted delta as soon as the party finishes training,
// and the aggregator folds complete blocks of consecutive cohort slots
// into the accumulator while later parties are still training. The
// fold kernel is a register-blocked fused weighted-axpy that processes
// up to kFoldBlock party rows per accumulator sweep — the same
// per-coordinate left-to-right addition chain as a one-party-at-a-time
// fold, so the result is bit-identical for every thread count, every
// submission order, and every block partition (the PR 2 invariant
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

/// Streaming weighted-mean aggregator over a round's cohort.
///
/// Protocol per round:
///   begin_round(dim, cohort_size);
///   for every slot k (from any thread, in any order): either
///     submit(k, weight, delta)   — delta.size() must equal dim — or
///     skip(k)                    — non-responder;
///   finalize()                   — after all slots are resolved.
///
/// submit() folds every complete kFoldBlock-aligned block of
/// consecutive resolved slots whose members all responded or skipped,
/// overlapping aggregation with the training phase; finalize() drains
/// the tail and divides by the total weight. Submitted buffers are
/// borrowed: they must stay alive and unmodified until finalize()
/// returns.
class StreamingAggregator {
 public:
  /// Parties folded per accumulator sweep (fixed block partition of the
  /// cohort; the partition never changes the result, only traffic).
  static constexpr std::size_t kFoldBlock = 8;

  /// Starts a round. The accumulator and slot table are reused across
  /// rounds (no steady-state allocation once cohort/dim peak).
  void begin_round(std::size_t dim, std::size_t cohort_size);

  /// Registers slot `k`'s weighted delta and folds any newly completed
  /// blocks. Throws std::invalid_argument on a dimension mismatch
  /// (mixed-dim updates silently shrank under the old max-padding
  /// aggregate_updates — rejected here instead). Thread-safe.
  void submit(std::size_t slot, double weight,
              const std::vector<double>& delta);

  /// Marks slot `k` as a non-responder. Thread-safe.
  void skip(std::size_t slot);

  /// Folds the remaining slots in cohort order and returns the
  /// weighted mean (empty when no slot contributed). The reference is
  /// valid until the next begin_round. Single-threaded (call after the
  /// parallel phase).
  [[nodiscard]] std::vector<double>& finalize();

  /// Responding slots folded so far this round.
  std::size_t contributions() const { return contributions_; }
  /// Sum and maximum of the folded slots' weights, summed in slot order
  /// (the weighted mean's sensitivity to one update, for DP noise).
  double total_weight() const { return total_weight_; }
  double max_weight() const { return max_weight_; }

 private:
  enum class SlotState : unsigned char { kPending, kReady, kSkipped };

  /// Folds resolved blocks starting at folded_; `drain` also folds a
  /// trailing partial block (finalize only). Caller holds fold_mutex_.
  void fold_ready_prefix(bool drain);

  std::size_t dim_ = 0;
  std::size_t cohort_ = 0;
  std::vector<double> acc_;

  std::mutex state_mutex_;  ///< guards slot table + folded_ cursor
  std::mutex fold_mutex_;   ///< serializes fold kernels (try-lock)
  std::vector<SlotState> states_;
  std::vector<const double*> rows_;
  std::vector<double> weights_;
  std::size_t folded_ = 0;  ///< slots [0, folded_) already in acc_
  std::size_t resolved_ = 0;
  std::size_t contributions_ = 0;
  double total_weight_ = 0.0;
  double max_weight_ = 0.0;
  bool finalized_ = false;
};

}  // namespace flips::fl
