#ifndef SES_TENSOR_SPARSE_H_
#define SES_TENSOR_SPARSE_H_

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ses::tensor {

/// CSR sparse float matrix. Used for node-feature matrices (bag-of-words
/// features are >95% zero on citation graphs), where keeping the first-layer
/// linear map sparse turns an O(N*F*H) matmul into O(nnz*H).
struct SparseMatrix {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<int64_t> row_ptr;  ///< size rows + 1
  std::vector<int64_t> col_idx;  ///< size nnz
  std::vector<float> values;     ///< size nnz

  int64_t nnz() const { return static_cast<int64_t>(col_idx.size()); }

  /// Builds a CSR copy of a dense matrix (entries with |v| > 0 kept).
  static SparseMatrix FromDense(const Tensor& dense);

  /// Materializes as dense.
  Tensor ToDense() const;

  /// Dense product: this * dense (rows x dense.cols()), on the CSR SpMM
  /// kernel. With `weights` (nnz floats), entry e counts as weights[e]
  /// instead of values[e].
  Tensor MatMul(const Tensor& dense, const float* weights = nullptr) const;

  /// Identity pattern (used for PolBlogs' unit-matrix features).
  static SparseMatrix Identity(int64_t n);

  /// Row slice view copy: keeps rows in [lo, hi).
  SparseMatrix SliceRows(int64_t lo, int64_t hi) const;

  /// Copy with rows re-ordered/gathered: out row i = this row index[i].
  SparseMatrix GatherRows(const std::vector<int64_t>& index) const;
};

}  // namespace ses::tensor

#endif  // SES_TENSOR_SPARSE_H_
