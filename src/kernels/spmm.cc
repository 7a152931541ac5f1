#include "kernels/spmm.h"

#include <cstdint>

#include "util/logging.h"

namespace ses::kernels {

CsrAdj BuildCsrByDst(const int64_t* src, const int64_t* dst, int64_t e,
                     int64_t n) {
  SES_CHECK(e <= INT32_MAX);  // perm holds 32-bit edge indices
  CsrAdj csr;
  csr.rows = n;
  csr.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  bool grouped = true;
  for (int64_t i = 0; i < e; ++i) {
    SES_CHECK(dst[i] >= 0 && dst[i] < n);
    ++csr.row_ptr[static_cast<size_t>(dst[i]) + 1];
    grouped &= i == 0 || dst[i - 1] <= dst[i];
  }
  for (int64_t r = 0; r < n; ++r)
    csr.row_ptr[static_cast<size_t>(r) + 1] +=
        csr.row_ptr[static_cast<size_t>(r)];
  // Edges already grouped by dst are their own CSR order: the sources in
  // edge order, and no permutation.
  if (grouped) {
    csr.col.assign(src, src + e);
    return csr;
  }
  csr.col.resize(static_cast<size_t>(e));
  csr.perm.resize(static_cast<size_t>(e));
  std::vector<int64_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  // Walking edges in order with per-row cursors is a STABLE sort: within a
  // row, entries appear in ascending edge index, so per-row accumulation
  // replays the edge-order sequence exactly.
  for (int64_t i = 0; i < e; ++i) {
    const int64_t slot = cursor[static_cast<size_t>(dst[i])]++;
    csr.col[static_cast<size_t>(slot)] = src[i];
    csr.perm[static_cast<size_t>(slot)] = static_cast<int32_t>(i);
  }
  return csr;
}

void SpmmPlan::Run(const float* w, const float* x, int64_t f, float* out,
                   const float* bias, bool relu) const {
  GetDispatch().spmm_csr(csr.rows, csr.row_ptr.data(), csr.col.data(),
                         csr.perm_or_null(), w, x, f, out, bias, relu);
}

std::shared_ptr<const SpmmPlan> SpmmPlanCell::Get(const int64_t* src,
                                                  const int64_t* dst,
                                                  int64_t e, int64_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_ == nullptr || plan_->csr.nnz() != e || plan_->csr.rows != n)
    plan_ = std::make_shared<const SpmmPlan>(
        SpmmPlan{BuildCsrByDst(src, dst, e, n)});
  return plan_;
}

}  // namespace ses::kernels
