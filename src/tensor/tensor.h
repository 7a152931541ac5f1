#ifndef SES_TENSOR_TENSOR_H_
#define SES_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.h"

namespace ses::tensor {

/// Dense row-major float32 matrix/vector.
///
/// The whole library operates on rank-1 and rank-2 tensors; a rank-1 tensor
/// of length n is treated interchangeably as an n x 1 column where a matrix
/// is expected. Storage is a flat std::vector<float> with value semantics —
/// at the scale of the graphs in the paper (thousands of nodes, hundreds of
/// feature dimensions) copies are cheap relative to the matmuls, and value
/// semantics keeps autograd's tape free of aliasing bugs.
class Tensor {
 public:
  /// Empty 0 x 0 tensor.
  Tensor() : rows_(0), cols_(0) {}

  /// Zero-filled rows x cols tensor.
  Tensor(int64_t rows, int64_t cols);

  /// Builds from a nested initializer list (rows of equal length).
  Tensor(std::initializer_list<std::initializer_list<float>> values);

  /// --- factories -----------------------------------------------------------
  static Tensor Zeros(int64_t rows, int64_t cols);
  static Tensor Ones(int64_t rows, int64_t cols);
  static Tensor Full(int64_t rows, int64_t cols, float value);
  static Tensor Eye(int64_t n);
  /// i.i.d. N(0, 1) entries.
  static Tensor Randn(int64_t rows, int64_t cols, util::Rng* rng);
  /// i.i.d. U[lo, hi) entries.
  static Tensor Uniform(int64_t rows, int64_t cols, float lo, float hi,
                        util::Rng* rng);
  /// Xavier/Glorot uniform initialization (gain 1).
  static Tensor Xavier(int64_t fan_in, int64_t fan_out, util::Rng* rng);
  /// Column vector from values.
  static Tensor FromVector(const std::vector<float>& values);

  /// --- shape ---------------------------------------------------------------
  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  bool SameShape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }
  /// Reshapes in place; total size must be preserved.
  void Reshape(int64_t rows, int64_t cols);

  /// --- element access ------------------------------------------------------
  float& At(int64_t r, int64_t c);
  float At(int64_t r, int64_t c) const;
  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* RowPtr(int64_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(int64_t r) const { return data_.data() + r * cols_; }

  /// --- in-place helpers ----------------------------------------------------
  void Fill(float value);
  void AddInPlace(const Tensor& other);          ///< this += other
  void AddScaled(const Tensor& other, float s);  ///< this += s * other
  void ScaleInPlace(float s);                    ///< this *= s

  /// --- summaries -----------------------------------------------------------
  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;
  /// Frobenius norm.
  float Norm() const;
  /// Max |a - b| over entries; shapes must match.
  float MaxAbsDiff(const Tensor& other) const;

  /// Human-readable preview (truncated for large tensors).
  std::string ToString() const;

 private:
  int64_t rows_;
  int64_t cols_;
  std::vector<float> data_;
};

}  // namespace ses::tensor

#endif  // SES_TENSOR_TENSOR_H_
