#include "kernels/spmm.h"

#include <algorithm>

#include "util/logging.h"

namespace ses::kernels {

namespace {

/// Below this nnz the CSR build costs more than it saves; explain-path motif
/// subgraphs are a few dozen edges.
constexpr int64_t kTinyNnz = 2048;

}  // namespace

CsrAdj BuildCsrByDst(const int64_t* src, const int64_t* dst, int64_t e,
                     int64_t n) {
  CsrAdj csr;
  csr.rows = n;
  csr.row_ptr.assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < e; ++i) {
    SES_CHECK(dst[i] >= 0 && dst[i] < n);
    ++csr.row_ptr[static_cast<size_t>(dst[i]) + 1];
  }
  for (int64_t r = 0; r < n; ++r)
    csr.row_ptr[static_cast<size_t>(r) + 1] +=
        csr.row_ptr[static_cast<size_t>(r)];
  csr.col.resize(static_cast<size_t>(e));
  csr.perm.resize(static_cast<size_t>(e));
  std::vector<int64_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
  // Walking edges in order with per-row cursors is a STABLE sort: within a
  // row, entries appear in ascending edge index, so per-row accumulation
  // replays the edge-order sequence exactly (the bitwise-parity invariant).
  for (int64_t i = 0; i < e; ++i) {
    const int64_t slot = cursor[static_cast<size_t>(dst[i])]++;
    csr.col[static_cast<size_t>(slot)] = src[i];
    csr.perm[static_cast<size_t>(slot)] = i;
  }
  return csr;
}

GraphStats ComputeGraphStats(const int64_t* dst, int64_t e, int64_t n) {
  GraphStats s;
  s.nodes = n;
  s.nnz = e;
  if (n == 0) return s;
  std::vector<int64_t> deg(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < e; ++i) ++deg[static_cast<size_t>(dst[i])];
  s.max_degree = *std::max_element(deg.begin(), deg.end());
  return s;
}

const char* SpmmVariantName(SpmmChoice choice) {
  static const char* kNames[kNumSpmmAlgos][kNumSimdTiers] = {
      {"edges_scalar", "edges_avx2", "edges_avx512"},
      {"csr_scalar", "csr_avx2", "csr_avx512"},
  };
  return kNames[static_cast<int>(choice.algo)][static_cast<int>(choice.tier)];
}

SpmmChoice HeuristicSpmmChoice(const GraphStats& stats, int64_t /*feat*/,
                               SimdTier tier) {
  // Tiny graphs (explain-path motifs): the CSR build is pure overhead and
  // the whole working set is cache-resident anyway.
  return {stats.nnz < kTinyNnz ? SpmmAlgo::kEdgeOrder : SpmmAlgo::kCsr, tier};
}

SpmmPlan::SpmmPlan(const int64_t* src, const int64_t* dst, int64_t e,
                   int64_t n)
    : src_(src), dst_(dst), edges_(e), stats_(ComputeGraphStats(dst, e, n)) {}

const CsrAdj& SpmmPlan::EnsureCsr() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!csr_built_) {
    csr_ = BuildCsrByDst(src_, dst_, edges_, stats_.nodes);
    csr_built_ = true;
  }
  return csr_;
}

SpmmChoice SpmmPlan::Choose(int64_t feat) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [f, c] : choice_memo_)
    if (f == feat) return c;
  const SpmmChoice choice = HeuristicSpmmChoice(stats_, feat, ActiveTier());
  choice_memo_.emplace_back(feat, choice);
  return choice;
}

void SpmmPlan::Run(SpmmChoice choice, const float* w, const float* x,
                   int64_t f, float* out, const float* bias,
                   bool relu) const {
  const Dispatch& d = DispatchFor(choice.tier);
  switch (choice.algo) {
    case SpmmAlgo::kEdgeOrder: {
      d.spmm_edges(src_, dst_, w, edges_, x, f, out);
      if (bias != nullptr || relu)
        for (int64_t r = 0; r < stats_.nodes; ++r)
          d.bias_act_row(out + r * f, bias, f, relu);
      break;
    }
    case SpmmAlgo::kCsr: {
      const CsrAdj& csr = EnsureCsr();
      d.spmm_csr(csr.rows, csr.row_ptr.data(), csr.col.data(),
                 csr.perm.data(), w, x, f, out, bias, relu);
      break;
    }
  }
}

std::shared_ptr<const SpmmPlan> SpmmPlanCell::Get(const int64_t* src,
                                                  const int64_t* dst,
                                                  int64_t e, int64_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (plan_ == nullptr || plan_->stats().nnz != e ||
      plan_->stats().nodes != n)
    plan_ = std::make_shared<const SpmmPlan>(src, dst, e, n);
  return plan_;
}

}  // namespace ses::kernels
