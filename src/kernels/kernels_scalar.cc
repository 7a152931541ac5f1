/// Scalar reference tier. This TU is compiled with the project's default
/// target flags (no -m extensions, no FMA contraction), so its loops are
/// bit-for-bit the kernels the tensor/autograd layers historically inlined —
/// the baseline every SIMD tier is parity-tested against.

#include "kernels/kernel_impl.h"
#include "kernels/ops_scalar.h"

namespace ses::kernels::detail {
namespace {

void AxpyRow(float* dst, const float* src, int64_t n, float a) {
  OpsScalar::Axpy(dst, src, n, a);
}
void AddRow(float* dst, const float* src, int64_t n) {
  OpsScalar::Add(dst, src, n);
}
void VecAdd(const float* a, const float* b, float* out, int64_t n) {
  VecAddImpl<OpsScalar>(a, b, out, n);
}
void VecSub(const float* a, const float* b, float* out, int64_t n) {
  VecSubImpl<OpsScalar>(a, b, out, n);
}
void VecMul(const float* a, const float* b, float* out, int64_t n) {
  VecMulImpl<OpsScalar>(a, b, out, n);
}
void VecRelu(const float* a, float* out, int64_t n) {
  VecReluImpl<OpsScalar>(a, out, n);
}
void MatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
            int64_t n) {
  MatMulImpl<OpsScalar>(a, b, c, m, k, n);
}
void GatherRows(const float* a, int64_t cols, const int64_t* index, int64_t n,
                float* out) {
  GatherRowsImpl(a, cols, index, n, out);
}
void SpmmCsr(int64_t rows, const int64_t* row_ptr, const int64_t* col,
             const int32_t* perm, const float* w, const float* x, int64_t f,
             float* out, const float* bias, bool relu) {
  SpmmCsrImpl<OpsScalar>(rows, row_ptr, col, perm, w, x, f, out, bias, relu);
}
void EdgeDot(int64_t n_edges, const int64_t* src, const int64_t* dst,
             const float* x, const float* y, int64_t f, float* out) {
  EdgeDotImpl<OpsScalar>(n_edges, src, dst, x, y, f, out);
}

}  // namespace

const Dispatch kDispatchScalar = {
    SimdTier::kScalar,
    "scalar",
    /*compiled=*/true,
    "dense_scalar",
    "unary_scalar",
    "binary_scalar",
    "rows_scalar",
    "csr_scalar",
    &AxpyRow,
    &AddRow,
    &VecAdd,
    &VecSub,
    &VecMul,
    &VecRelu,
    &MatMul,
    &GatherRows,
    &SpmmCsr,
    &EdgeDot,
};

}  // namespace ses::kernels::detail
