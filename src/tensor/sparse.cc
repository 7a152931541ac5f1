#include "tensor/sparse.h"

#include "kernels/dispatch.h"
#include "obs/kernel_scope.h"
#include "util/logging.h"

namespace ses::tensor {

SparseMatrix SparseMatrix::FromDense(const Tensor& dense) {
  SparseMatrix sm;
  sm.rows = dense.rows();
  sm.cols = dense.cols();
  sm.row_ptr.assign(static_cast<size_t>(sm.rows) + 1, 0);
  for (int64_t r = 0; r < dense.rows(); ++r) {
    const float* src = dense.RowPtr(r);
    for (int64_t c = 0; c < dense.cols(); ++c) {
      if (src[c] != 0.0f) {
        sm.col_idx.push_back(c);
        sm.values.push_back(src[c]);
      }
    }
    sm.row_ptr[static_cast<size_t>(r) + 1] = sm.nnz();
  }
  return sm;
}

Tensor SparseMatrix::ToDense() const {
  Tensor out(rows, cols);
  for (int64_t r = 0; r < rows; ++r)
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e)
      out.At(r, col_idx[static_cast<size_t>(e)]) +=
          values[static_cast<size_t>(e)];
  return out;
}

Tensor SparseMatrix::MatMul(const Tensor& dense, const float* weights) const {
  SES_CHECK(cols == dense.rows());
  const int64_t f = dense.cols();
  const kernels::Dispatch& d = kernels::GetDispatch();
  // 2·nnz·f FLOPs; traffic = CSR stream (value + col index per entry, one
  // dense row gathered per entry) + the output written once. Values are
  // stored inline (perm == null); OpenMP over rows moved inside the kernel
  // behind kernels::ShouldParallelize — this loop used to fork a team
  // regardless of nnz.
  obs::KernelScope scope(
      "spmm", d.spmm_variant,
      2.0 * static_cast<double>(nnz()) * f,
      static_cast<double>(nnz()) * (12.0 + 4.0 * f) +
          4.0 * static_cast<double>(rows) * f);
  Tensor out(rows, dense.cols());
  d.spmm_csr(rows, row_ptr.data(), col_idx.data(), /*perm=*/nullptr,
             weights != nullptr ? weights : values.data(), dense.data(), f,
             out.data(), /*bias=*/nullptr, /*relu=*/false);
  return out;
}

SparseMatrix SparseMatrix::Identity(int64_t n) {
  SparseMatrix sm;
  sm.rows = sm.cols = n;
  sm.row_ptr.resize(static_cast<size_t>(n) + 1);
  sm.col_idx.resize(static_cast<size_t>(n));
  sm.values.assign(static_cast<size_t>(n), 1.0f);
  for (int64_t i = 0; i <= n; ++i) sm.row_ptr[static_cast<size_t>(i)] = i;
  for (int64_t i = 0; i < n; ++i) sm.col_idx[static_cast<size_t>(i)] = i;
  return sm;
}

SparseMatrix SparseMatrix::SliceRows(int64_t lo, int64_t hi) const {
  SES_CHECK(0 <= lo && lo <= hi && hi <= rows);
  SparseMatrix sm;
  sm.rows = hi - lo;
  sm.cols = cols;
  sm.row_ptr.resize(static_cast<size_t>(sm.rows) + 1);
  sm.row_ptr[0] = 0;
  for (int64_t r = lo; r < hi; ++r) {
    for (int64_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      sm.col_idx.push_back(col_idx[static_cast<size_t>(e)]);
      sm.values.push_back(values[static_cast<size_t>(e)]);
    }
    sm.row_ptr[static_cast<size_t>(r - lo) + 1] = sm.nnz();
  }
  return sm;
}

SparseMatrix SparseMatrix::GatherRows(const std::vector<int64_t>& index) const {
  SparseMatrix sm;
  sm.rows = static_cast<int64_t>(index.size());
  sm.cols = cols;
  sm.row_ptr.resize(index.size() + 1);
  sm.row_ptr[0] = 0;
  for (size_t i = 0; i < index.size(); ++i) {
    const int64_t r = index[i];
    SES_CHECK(r >= 0 && r < rows);
    for (int64_t e = row_ptr[static_cast<size_t>(r)];
         e < row_ptr[static_cast<size_t>(r) + 1]; ++e) {
      sm.col_idx.push_back(col_idx[static_cast<size_t>(e)]);
      sm.values.push_back(values[static_cast<size_t>(e)]);
    }
    sm.row_ptr[i + 1] = sm.nnz();
  }
  return sm;
}

}  // namespace ses::tensor
