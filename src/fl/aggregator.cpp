#include "fl/aggregator.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/simd.h"
#include "obs/metrics.h"

namespace flips::fl {

namespace {

// Process-wide aggregation-plane instruments. Registered once on first
// use (function-local static); the hot paths below only touch the
// cached pointers — relaxed atomics, no allocation, preserving the
// arena's zero-steady-state-allocation contract.
struct ArenaInstruments {
  obs::Counter* leases;
  obs::Counter* misses;  ///< leases served by a fresh allocation
  obs::Gauge* pooled;
};

const ArenaInstruments& arena_instruments() {
  static const ArenaInstruments g{
      &obs::Registry::global().counter("flips_arena_leases_total"),
      &obs::Registry::global().counter("flips_arena_misses_total"),
      &obs::Registry::global().gauge("flips_arena_pooled")};
  return g;
}

struct AggInstruments {
  obs::Counter* folds;            ///< fold-kernel sweeps
  obs::Histogram* fold_seconds;   ///< wall time per productive sweep
};

const AggInstruments& agg_instruments() {
  static const AggInstruments g{
      &obs::Registry::global().counter("flips_agg_folds_total"),
      &obs::Registry::global().histogram("flips_agg_fold_seconds", {},
                                         {1e-9, 10.0, 3})};
  return g;
}

}  // namespace

std::vector<double> BufferArena::lease(std::size_t dim) {
  const ArenaInstruments& ins = arena_instruments();
  std::vector<double> buffer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_.empty()) {
      buffer = std::move(free_.back());
      free_.pop_back();
    }
    ins.pooled->set(static_cast<double>(free_.size()));
  }
  ins.leases->inc();
  if (buffer.capacity() < dim) ins.misses->inc();
  buffer.resize(dim);
  return buffer;
}

void BufferArena::release(std::vector<double> buffer) {
  if (buffer.capacity() == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  free_.push_back(std::move(buffer));
  arena_instruments().pooled->set(static_cast<double>(free_.size()));
}

std::size_t BufferArena::pooled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_.size();
}

namespace {

/// Folds N party rows into the accumulator: for every coordinate i,
///   acc[i] = ((acc[i] + w0*r0[i]) + w1*r1[i]) + ... + w{N-1}*r{N-1}[i]
/// — a strict left-to-right chain, so folding parties in blocks of any
/// size produces exactly the bits of a one-at-a-time fold. Register
/// blocking over a 16-coordinate strip amortizes the accumulator
/// load/store over N rows (the old path re-swept the accumulator once
/// per party) and gives the compiler independent lanes to vectorize.
/// always_inline so each fold_rows target clone compiles its own
/// ISA-wide copy.
template <std::size_t N>
[[gnu::always_inline]] inline void fold_rows_fixed(
    double* __restrict acc, const double* const* rows,
    const double* weights, std::size_t dim) {
  // Named scalar accumulators (not a local array): gcc SLP-packs them
  // into vector registers and keeps the per-coordinate add chains
  // independent; an indexed array here makes it vectorize across the
  // party dimension with ordered horizontal reductions instead (~2x
  // slower than the legacy loop).
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    double a0 = acc[i];
    double a1 = acc[i + 1];
    double a2 = acc[i + 2];
    double a3 = acc[i + 3];
    double a4 = acc[i + 4];
    double a5 = acc[i + 5];
    double a6 = acc[i + 6];
    double a7 = acc[i + 7];
    for (std::size_t p = 0; p < N; ++p) {  // N is constexpr: unrolled
      const double w = weights[p];
      const double* __restrict r = rows[p] + i;
      a0 += w * r[0];
      a1 += w * r[1];
      a2 += w * r[2];
      a3 += w * r[3];
      a4 += w * r[4];
      a5 += w * r[5];
      a6 += w * r[6];
      a7 += w * r[7];
    }
    acc[i] = a0;
    acc[i + 1] = a1;
    acc[i + 2] = a2;
    acc[i + 3] = a3;
    acc[i + 4] = a4;
    acc[i + 5] = a5;
    acc[i + 6] = a6;
    acc[i + 7] = a7;
  }
  for (; i < dim; ++i) {
    double a = acc[i];
    for (std::size_t p = 0; p < N; ++p) {
      a += weights[p] * rows[p][i];
    }
    acc[i] = a;
  }
}

/// Dispatches a run of `count` rows through the fixed-size kernels in
/// party order (8s, then 4, 2, 1) — the chain through acc stays strict
/// left-to-right across calls.
///
/// Every clone (common/simd.h) produces exactly the scalar chain's bits.
FLIPS_TARGET_CLONES void
fold_rows(double* acc, const double* const* rows,
          const double* weights, std::size_t count, std::size_t dim) {
  while (count >= 8) {
    fold_rows_fixed<8>(acc, rows, weights, dim);
    rows += 8;
    weights += 8;
    count -= 8;
  }
  if (count >= 4) {
    fold_rows_fixed<4>(acc, rows, weights, dim);
    rows += 4;
    weights += 4;
    count -= 4;
  }
  if (count >= 2) {
    fold_rows_fixed<2>(acc, rows, weights, dim);
    rows += 2;
    weights += 2;
    count -= 2;
  }
  if (count == 1) {
    fold_rows_fixed<1>(acc, rows, weights, dim);
  }
}

}  // namespace

void StreamingAggregator::begin_round(std::size_t dim,
                                      std::size_t cohort_size) {
  std::scoped_lock lock(fold_mutex_, state_mutex_);
  dim_ = dim;
  cohort_ = cohort_size;
  acc_.assign(dim, 0.0);
  states_.assign(cohort_size, SlotState::kPending);
  rows_.assign(cohort_size, nullptr);
  weights_.assign(cohort_size, 0.0);
  folded_ = 0;
  resolved_ = 0;
  contributions_ = 0;
  total_weight_ = 0.0;
  max_weight_ = 0.0;
  finalized_ = false;
}

void StreamingAggregator::submit(std::size_t slot, double weight,
                                 const std::vector<double>& delta) {
  if (delta.size() != dim_) {
    throw std::invalid_argument(
        "StreamingAggregator::submit: update dimension " +
        std::to_string(delta.size()) + " does not match round dimension " +
        std::to_string(dim_) +
        " (mixed-dimension updates are rejected, not max-padded)");
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (slot >= cohort_ || states_[slot] != SlotState::kPending) {
      throw std::invalid_argument(
          "StreamingAggregator::submit: bad or duplicate slot " +
          std::to_string(slot));
    }
    rows_[slot] = delta.data();
    weights_[slot] = weight;
    states_[slot] = SlotState::kReady;
    ++resolved_;
  }
  // Opportunistic streaming fold: whoever gets the fold lock advances
  // the block-aligned ready prefix; a failed try_lock just defers the
  // work to the current holder's rescan or to finalize().
  std::unique_lock<std::mutex> fold(fold_mutex_, std::try_to_lock);
  if (fold.owns_lock()) fold_ready_prefix(/*drain=*/false);
}

void StreamingAggregator::skip(std::size_t slot) {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (slot >= cohort_ || states_[slot] != SlotState::kPending) {
      throw std::invalid_argument(
          "StreamingAggregator::skip: bad or duplicate slot " +
          std::to_string(slot));
    }
    states_[slot] = SlotState::kSkipped;
    ++resolved_;
  }
  std::unique_lock<std::mutex> fold(fold_mutex_, std::try_to_lock);
  if (fold.owns_lock()) fold_ready_prefix(/*drain=*/false);
}

void StreamingAggregator::fold_ready_prefix(bool drain) {
  std::uint64_t fold_start_ns = 0;  ///< set by the first productive sweep
  for (;;) {
    std::size_t begin = 0;
    std::size_t end = 0;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      begin = folded_;
      end = begin;
      while (end < cohort_ && states_[end] != SlotState::kPending) ++end;
      if (!drain) end -= end % kFoldBlock;  // only whole aligned blocks
      if (end <= begin) break;
      folded_ = end;
    }
    if (fold_start_ns == 0) fold_start_ns = common::steady_now_ns();
    // Slots in [begin, end) are resolved: their rows_/weights_ entries
    // were published under state_mutex_ and are immutable from now on.
    const double* run_rows[kFoldBlock];
    double run_weights[kFoldBlock];
    std::size_t run = 0;
    for (std::size_t slot = begin; slot < end; ++slot) {
      if (states_[slot] != SlotState::kReady) continue;
      run_rows[run] = rows_[slot];
      run_weights[run] = weights_[slot];
      total_weight_ += weights_[slot];
      max_weight_ = std::max(max_weight_, weights_[slot]);
      ++contributions_;
      if (++run == kFoldBlock) {
        fold_rows(acc_.data(), run_rows, run_weights, run, dim_);
        run = 0;
      }
    }
    if (run > 0) fold_rows(acc_.data(), run_rows, run_weights, run, dim_);
  }
  if (fold_start_ns != 0) {
    const AggInstruments& ins = agg_instruments();
    ins.folds->inc();
    ins.fold_seconds->record(
        static_cast<double>(common::steady_now_ns() - fold_start_ns) *
        1e-9);
  }
}

std::vector<double>& StreamingAggregator::finalize() {
  std::lock_guard<std::mutex> fold(fold_mutex_);
  if (!finalized_) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (resolved_ != cohort_) {
        throw std::logic_error(
            "StreamingAggregator::finalize: unresolved slots remain");
      }
    }
    fold_ready_prefix(/*drain=*/true);
    if (contributions_ == 0) {
      acc_.clear();
    } else if (total_weight_ > 0.0) {
      for (double& v : acc_) v /= total_weight_;
    }
    finalized_ = true;
  }
  return acc_;
}

}  // namespace flips::fl
