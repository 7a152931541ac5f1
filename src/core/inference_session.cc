#include "core/inference_session.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "kernels/spmm.h"
#include "obs/metrics.h"
#include "obs/request.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace ses::core {

namespace ag = ses::autograd;
namespace t = ses::tensor;

namespace {

/// Cheap result fingerprint for the access log: dims plus the first and last
/// logit rows — enough to notice a changed result without hashing the full
/// matrix on every request.
uint64_t LogitsDigest(const t::Tensor& logits) {
  uint64_t h = obs::Fnv1aBegin();
  const int64_t dims[2] = {logits.rows(), logits.cols()};
  h = obs::Fnv1a(h, dims, sizeof(dims));
  if (logits.rows() > 0 && logits.cols() > 0) {
    const size_t row_bytes = static_cast<size_t>(logits.cols()) * sizeof(float);
    h = obs::Fnv1a(h, logits.RowPtr(0), row_bytes);
    h = obs::Fnv1a(h, logits.RowPtr(logits.rows() - 1), row_bytes);
  }
  return h;
}

}  // namespace

InferenceSession::InferenceSession(const SesModel* model,
                                   const data::Dataset* ds,
                                   SessionOverrides overrides)
    : encoder_(model->encoder()),
      model_(model),
      ds_(ds),
      overrides_(std::move(overrides)) {
  SES_CHECK(encoder_ != nullptr && "SesModel must be Fit before serving");
  SES_CHECK(ds_ != nullptr);
}

InferenceSession::InferenceSession(const models::Encoder* encoder,
                                   const data::Dataset* ds,
                                   SessionOverrides overrides)
    : encoder_(encoder), ds_(ds), overrides_(std::move(overrides)) {
  SES_CHECK(encoder_ != nullptr);
  SES_CHECK(ds_ != nullptr);
}

void InferenceSession::EnsureArtifactsLocked() {
  const int64_t version = graph_version_.load();
  if (artifact_version_ == version) return;
  SES_TRACE_SPAN("infer/build_artifacts");
  ag::InferenceGuard no_grad;
  adj_edges_ = ds_->graph.DirectedEdges(/*add_self_loops=*/true);
  const bool use_feature_mask =
      model_ != nullptr && model_->options().use_feature_mask;
  if (use_feature_mask && overrides_.feature_mask_nnz.size() > 0) {
    input_ = nn::FeatureInput::Sparse(
        ds_->features, ag::Variable::Constant(overrides_.feature_mask_nnz));
  } else if (use_feature_mask && model_->feature_mask_nnz().size() > 0) {
    input_ = nn::FeatureInput::Sparse(
        ds_->features, ag::Variable::Constant(model_->feature_mask_nnz()));
  } else {
    input_ = models::MakeInput(*ds_);
  }
  adj_mask_ = {};
  const bool use_structure_mask =
      model_ != nullptr && model_->options().use_structure_mask;
  if (use_structure_mask && overrides_.structure_mask_adj.size() > 0)
    adj_mask_ = ag::Variable::Constant(overrides_.structure_mask_adj);
  else if (use_structure_mask && model_->structure_mask_adj().size() > 0)
    adj_mask_ = ag::Variable::Constant(model_->structure_mask_adj());
  cached_aggregation_ =
      encoder_->PrecomputeAggregation(adj_edges_, adj_mask_,
                                      /*renormalize_mask=*/true);
  // Autotune the SpMM variant for this graph version. Choose() is a pure
  // function of the graph statistics, the hidden feature width, and the
  // active SIMD tier, memoized on the edge list — so every forward over
  // adj_edges_ (warm query or benchmark) replays exactly this decision, and
  // a fresh-but-identical edge list (the taped eval path) lands on the same
  // variant. Exported as a labeled gauge so /metrics shows which kernel is
  // serving; the previous version's label is zeroed on change.
  const auto plan = adj_edges_->plan();
  const kernels::SpmmChoice choice = plan->Choose(encoder_->hidden_dim());
  const char* variant = kernels::SpmmVariantName(choice);
  if (spmm_variant_ != nullptr && spmm_variant_ != variant) {
    obs::MetricsRegistry::Get()
        .GetGauge("ses.kernel.autotune",
                  {{"op", "spmm"}, {"variant", spmm_variant_}})
        .Set(0);
  }
  spmm_variant_ = variant;
  obs::MetricsRegistry::Get()
      .GetGauge("ses.kernel.autotune", {{"op", "spmm"}, {"variant", variant}})
      .Set(1);
  artifact_version_ = version;
  logits_version_ = -1;  // stale memo belongs to the previous graph
}

tensor::Tensor InferenceSession::RunForward() const {
  ag::InferenceGuard no_grad;
  util::Rng rng(0);
  auto out = encoder_->Forward(input_, adj_edges_, adj_mask_, 0.0f,
                               /*training=*/false, &rng,
                               /*renormalize_mask=*/true, &cached_aggregation_);
  return out.logits.value();
}

const tensor::Tensor& InferenceSession::EnsureLogitsLocked(
    obs::RequestScope* request) {
  EnsureArtifactsLocked();
  if (logits_version_ == artifact_version_) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Get().GetCounter("ses.infer.cache_hits").Add(1);
    if (request != nullptr) request->NoteCacheHit(true);
    return logits_;
  }
  SES_TRACE_SPAN("infer/logits_miss");
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Get().GetCounter("ses.infer.cache_misses").Add(1);
  // The miss forward is the classic p99 outlier: whichever request arrives
  // first after an invalidation pays the whole rebuild. Observe() records
  // the calling request's trace-id as the bucket exemplar, so the slow
  // bucket of this histogram names the request that ate the forward.
  const auto forward_start = std::chrono::steady_clock::now();
  logits_ = RunForward();
  static obs::Histogram& forward_hist =
      obs::MetricsRegistry::Get().GetHistogram(
          "ses.infer.forward_us", obs::Histogram::DefaultLatencyEdgesUs());
  forward_hist.Observe(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - forward_start)
                              .count()) *
      1e-3);
  logits_version_ = artifact_version_;
  return logits_;
}

tensor::Tensor InferenceSession::Logits() {
  obs::RequestScope request("infer.logits");
  std::lock_guard<std::mutex> lock(mutex_);
  const tensor::Tensor& logits = EnsureLogitsLocked(&request);
  request.SetDigest(LogitsDigest(logits));
  return logits;
}

int64_t InferenceSession::PredictNode(int64_t node) {
  obs::RequestScope request("infer.predict");
  std::lock_guard<std::mutex> lock(mutex_);
  const tensor::Tensor& logits = EnsureLogitsLocked(&request);
  SES_CHECK(node >= 0 && node < logits.rows());
  const float* row = logits.RowPtr(node);
  int64_t best = 0;
  for (int64_t c = 1; c < logits.cols(); ++c)
    if (row[c] > row[best]) best = c;
  const int64_t fingerprint[2] = {node, best};
  request.SetDigest(
      obs::Fnv1a(obs::Fnv1aBegin(), fingerprint, sizeof(fingerprint)));
  return best;
}

bool InferenceSession::TryPredictCached(int64_t node, int64_t* cls) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (logits_version_ < 0 || logits_version_ != graph_version_.load()) {
    return false;  // cold or stale: the caller decides whether to queue
  }
  SES_CHECK(node >= 0 && node < logits_.rows());
  // Same first-max-wins argmax as PredictNode over the same memoized rows,
  // so degraded-mode answers are bitwise-equal to the full path.
  const float* row = logits_.RowPtr(node);
  int64_t best = 0;
  for (int64_t c = 1; c < logits_.cols(); ++c)
    if (row[c] > row[best]) best = c;
  cache_hits_.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Get().GetCounter("ses.infer.cache_hits").Add(1);
  *cls = best;
  return true;
}

std::vector<int64_t> InferenceSession::PredictMany(
    const std::vector<int64_t>& nodes) {
  obs::RequestScope request("infer.predict_many");
  std::lock_guard<std::mutex> lock(mutex_);
  const tensor::Tensor& logits = EnsureLogitsLocked(&request);
  // Same argmax kernel as PredictNode (first max wins), batched over rows.
  std::vector<int64_t> classes = tensor::ArgmaxGatherRows(
      logits, nodes.data(), static_cast<int64_t>(nodes.size()));
  // The batch digest walks every node and class byte; only pay for it when
  // an access-log sink is actually attached.
  if (obs::AccessLog::Get().active()) {
    uint64_t h = obs::Fnv1aBegin();
    h = obs::Fnv1a(h, nodes.data(), nodes.size() * sizeof(int64_t));
    h = obs::Fnv1a(h, classes.data(), classes.size() * sizeof(int64_t));
    request.SetDigest(h);
  }
  return classes;
}

tensor::Tensor InferenceSession::GatherLogits(
    const std::vector<int64_t>& nodes) {
  obs::RequestScope request("infer.gather_logits");
  std::lock_guard<std::mutex> lock(mutex_);
  const tensor::Tensor& logits = EnsureLogitsLocked(&request);
  tensor::Tensor rows = tensor::GatherRows(
      logits, nodes.data(), static_cast<int64_t>(nodes.size()));
  if (obs::AccessLog::Get().active()) request.SetDigest(LogitsDigest(rows));
  return rows;
}

void InferenceSession::ExplainInto(int64_t node, int64_t top_k,
                                   std::vector<int64_t>* scratch,
                                   std::vector<int64_t>* selected,
                                   Explanation* out) const {
  out->neighbors.clear();
  out->scores.clear();
  if (model_ == nullptr || model_->structure_mask_khop().size() == 0) return;
  const graph::KHopAdjacency& khop = model_->khop();
  SES_CHECK(node >= 0 && node < khop.num_nodes());
  const auto nbrs = khop.Neighbors(node);
  const int64_t offset = khop.PairOffset(node);
  const tensor::Tensor& mask = model_->structure_mask_khop();
  const int64_t k =
      graph::TopKByScore(mask.data(), offset, static_cast<int64_t>(nbrs.size()),
                         top_k, scratch, selected);
  if (k <= 0) return;
  out->neighbors.reserve(static_cast<size_t>(k));
  out->scores.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    const int64_t local = (*selected)[static_cast<size_t>(i)];
    out->neighbors.push_back(nbrs[static_cast<size_t>(local)]);
    out->scores.push_back(mask[offset + local]);
  }
}

InferenceSession::Explanation InferenceSession::ExplainNode(
    int64_t node, int64_t top_k) const {
  obs::RequestScope request("infer.explain");
  Explanation ex;
  std::vector<int64_t> scratch, selected;
  ExplainInto(node, top_k, &scratch, &selected, &ex);
  uint64_t h = obs::Fnv1a(obs::Fnv1aBegin(), &node, sizeof(node));
  h = obs::Fnv1a(h, ex.neighbors.data(),
                 ex.neighbors.size() * sizeof(int64_t));
  request.SetDigest(h);
  return ex;
}

std::vector<InferenceSession::Explanation> InferenceSession::ExplainMany(
    const std::vector<int64_t>& nodes, int64_t top_k) const {
  obs::RequestScope request("infer.explain_many");
  std::vector<Explanation> out(nodes.size());
  std::vector<int64_t> scratch, selected;
  uint64_t h = obs::Fnv1aBegin();
  for (size_t i = 0; i < nodes.size(); ++i) {
    ExplainInto(nodes[i], top_k, &scratch, &selected, &out[i]);
    h = obs::Fnv1a(h, &nodes[i], sizeof(nodes[i]));
    h = obs::Fnv1a(h, out[i].neighbors.data(),
                   out[i].neighbors.size() * sizeof(int64_t));
  }
  request.SetDigest(h);
  return out;
}

tensor::Tensor InferenceSession::ForwardLogits() {
  obs::RequestScope request("infer.forward");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    EnsureArtifactsLocked();
  }
  // Artifacts are immutable until the next InvalidateGraph(); the forward
  // itself only reads them, so it runs outside the lock and scales across
  // worker threads.
  SES_TRACE_SPAN("infer/forward");
  tensor::Tensor logits = RunForward();
  request.SetDigest(LogitsDigest(logits));
  return logits;
}

}  // namespace ses::core
