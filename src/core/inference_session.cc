#include "core/inference_session.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

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
  features_ = ds_->features;
}

InferenceSession::InferenceSession(const models::Encoder* encoder,
                                   const data::Dataset* ds,
                                   SessionOverrides overrides)
    : encoder_(encoder), ds_(ds), overrides_(std::move(overrides)) {
  SES_CHECK(encoder_ != nullptr);
  SES_CHECK(ds_ != nullptr);
  features_ = ds_->features;
}

InferenceSession::~InferenceSession() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  build_cv_.notify_all();
  if (builder_.joinable()) builder_.join();
}

void InferenceSession::InvalidateGraph() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    features_ = ds_->features;
    graph_version_.fetch_add(1);
    if (!builder_.joinable()) builder_ = std::thread([this] { BuilderLoop(); });
  }
  build_cv_.notify_one();
}

void InferenceSession::BuilderLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    build_cv_.wait(lock, [&] {
      const int64_t done = std::max(
          current_ != nullptr ? current_->version : -1, failed_version_);
      return stopping_ || (!building_ && done < graph_version_.load());
    });
    if (stopping_) return;
    BuildLocked(lock);
  }
}

void InferenceSession::BuildLocked(std::unique_lock<std::mutex>& lock) {
  building_ = true;
  const int64_t version = graph_version_.load();
  std::shared_ptr<const tensor::SparseMatrix> features = features_;
  lock.unlock();
  SnapshotPtr snapshot;
  std::exception_ptr failure;
  try {
    snapshot = Build(version, std::move(features));
  } catch (...) {
    failure = std::current_exception();
  }
  lock.lock();
  building_ = false;
  if (snapshot == nullptr) {
    failed_version_ = version;
    failure_ = failure;
  } else if (current_ == nullptr || current_->version < version) {
    current_ = std::move(snapshot);
  }
  published_cv_.notify_all();
  build_cv_.notify_one();  // a bump may have arrived during an inline build
}

InferenceSession::SnapshotPtr InferenceSession::Build(
    int64_t version,
    std::shared_ptr<const tensor::SparseMatrix> features) const {
  SES_CHECK(features != nullptr);
  ag::InferenceGuard no_grad;
  auto snapshot = std::make_shared<Snapshot>();
  snapshot->version = version;
  {
    SES_TRACE_SPAN("infer/build_artifacts");
    Artifacts& a = snapshot->artifacts;
    a.edges = ds_->graph.DirectedEdges(/*add_self_loops=*/true);
    const bool use_feature_mask =
        model_ != nullptr && model_->options().use_feature_mask;
    if (use_feature_mask && overrides_.feature_mask_nnz.size() > 0) {
      a.input = nn::FeatureInput::Sparse(
          std::move(features),
          ag::Variable::Constant(overrides_.feature_mask_nnz));
    } else if (use_feature_mask && model_->feature_mask_nnz().size() > 0) {
      a.input = nn::FeatureInput::Sparse(
          std::move(features),
          ag::Variable::Constant(model_->feature_mask_nnz()));
    } else {
      a.input = nn::FeatureInput::Sparse(std::move(features));
    }
    const bool use_structure_mask =
        model_ != nullptr && model_->options().use_structure_mask;
    if (use_structure_mask && overrides_.structure_mask_adj.size() > 0)
      a.adj_mask = ag::Variable::Constant(overrides_.structure_mask_adj);
    else if (use_structure_mask && model_->structure_mask_adj().size() > 0)
      a.adj_mask = ag::Variable::Constant(model_->structure_mask_adj());
    a.cached_aggregation =
        encoder_->PrecomputeAggregation(a.edges, a.adj_mask,
                                        /*renormalize_mask=*/true);
  }
  SES_TRACE_SPAN("infer/build_forward");
  // Builds run on the builder thread, off every request's path, so the
  // histogram records them without an exemplar; only a cold session's first
  // read builds inline and tags its bucket with that read's trace-id.
  const auto forward_start = std::chrono::steady_clock::now();
  snapshot->logits = RunForward(snapshot->artifacts);
  static obs::Histogram& forward_hist =
      obs::MetricsRegistry::Get().GetHistogram(
          "ses.infer.forward_us", obs::Histogram::DefaultLatencyEdgesUs());
  forward_hist.Observe(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - forward_start)
                              .count()) *
      1e-3);
  return snapshot;
}

InferenceSession::SnapshotPtr InferenceSession::Await(bool* waited) {
  std::unique_lock<std::mutex> lock(mutex_);
  const int64_t target = graph_version_.load();
  *waited = current_ == nullptr || current_->version < target;
  for (;;) {
    if (current_ != nullptr && current_->version >= target) return current_;
    if (failed_version_ >= target) std::rethrow_exception(failure_);
    // Cold: nothing was ever bumped, so no builder runs; build inline.
    if (!building_ && !builder_.joinable()) {
      BuildLocked(lock);
      continue;
    }
    published_cv_.wait(lock);
  }
}

InferenceSession::SnapshotPtr InferenceSession::Current() {
  SnapshotPtr snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot = current_;
  }
  if (snapshot != nullptr) {
    cache_hits_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricsRegistry::Get().GetCounter("ses.infer.cache_hits").Add(1);
  }
  return snapshot;
}

InferenceSession::SnapshotPtr InferenceSession::Latest(
    obs::RequestScope* request) {
  bool waited = false;
  SnapshotPtr snapshot = Await(&waited);
  (waited ? cache_misses_ : cache_hits_).fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::Get()
      .GetCounter(waited ? "ses.infer.cache_misses" : "ses.infer.cache_hits")
      .Add(1);
  if (request != nullptr) {
    request->NoteCacheHit(!waited);
    request->SetVersion(snapshot->version);
  }
  return snapshot;
}

tensor::Tensor InferenceSession::RunForward(const Artifacts& artifacts) const {
  ag::InferenceGuard no_grad;
  util::Rng rng(0);
  auto out = encoder_->Forward(artifacts.input, artifacts.edges,
                               artifacts.adj_mask, 0.0f,
                               /*training=*/false, &rng,
                               /*renormalize_mask=*/true,
                               &artifacts.cached_aggregation);
  return out.logits.value();
}

std::vector<int64_t> InferenceSession::Snapshot::PredictMany(
    const std::vector<int64_t>& nodes) const {
  return tensor::ArgmaxGatherRows(logits, nodes.data(),
                                  static_cast<int64_t>(nodes.size()));
}

tensor::Tensor InferenceSession::Snapshot::GatherLogits(
    const std::vector<int64_t>& nodes) const {
  return tensor::GatherRows(logits, nodes.data(),
                            static_cast<int64_t>(nodes.size()));
}

tensor::Tensor InferenceSession::Logits() {
  obs::RequestScope request("infer.logits");
  const SnapshotPtr snapshot = Latest(&request);
  request.SetDigest(LogitsDigest(snapshot->logits));
  return snapshot->logits;
}

int64_t InferenceSession::PredictNode(int64_t node) {
  obs::RequestScope request("infer.predict");
  const SnapshotPtr snapshot = Latest(&request);
  const tensor::Tensor& logits = snapshot->logits;
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

std::vector<int64_t> InferenceSession::PredictMany(
    const std::vector<int64_t>& nodes) {
  obs::RequestScope request("infer.predict_many");
  // Same argmax kernel as PredictNode (first max wins), batched over rows.
  std::vector<int64_t> classes = Latest(&request)->PredictMany(nodes);
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
  tensor::Tensor rows = Latest(&request)->GatherLogits(nodes);
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
  bool waited = false;
  const SnapshotPtr snapshot = Await(&waited);
  // The forward only reads the snapshot's immutable artifacts, so it runs
  // outside the lock and scales across worker threads, even while the
  // builder prepares a newer version.
  SES_TRACE_SPAN("infer/forward");
  tensor::Tensor logits = RunForward(snapshot->artifacts);
  request.SetDigest(LogitsDigest(logits));
  return logits;
}

}  // namespace ses::core
