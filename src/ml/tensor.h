// Contiguous row-major 2-D tensor — the storage type of the ML layer
// and of every party's (and the test set's) features.
// One flat std::vector<double> per tensor keeps batched activations,
// weights and gradients cache-friendly and lets gcc vectorize the dense
// kernels; `resize` reuses capacity so per-step reshapes in the hot FL
// loop are allocation-free after warm-up.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace flips::ml {

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Reshapes to rows x cols. Contents are unspecified afterwards (the
  /// underlying vector keeps its capacity — no allocation when shrinking
  /// or re-growing to a previously seen size).
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  void fill(double value) { std::fill(data_.begin(), data_.end(), value); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  friend bool operator==(const Tensor& a, const Tensor& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace flips::ml
