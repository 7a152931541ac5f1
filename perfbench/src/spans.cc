#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

/// Spans this thread has open, innermost last: (recorder, span id).
thread_local std::vector<std::pair<const SpanRecorder*, int64_t>> open_spans;

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || s.end_ns < 0) continue;
    children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = -1;  // current merged run, empty at -1
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (run_end < 0 || a > run_end) {
        if (run_end >= 0) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end >= 0) covered += run_end - run_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

void SpanRecorder::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = on;
}

bool SpanRecorder::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

int64_t SpanRecorder::Open(const char* name, uint64_t request_id) {
  int64_t parent = -1;
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  const int64_t now = NowNs();
  int64_t id = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) return -1;
    id = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, now, -1, parent, request_id});
  }
  open_spans.emplace_back(this, id);
  return id;
}

void SpanRecorder::Close(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
    if (it->first == this && it->second == id) {
      open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

int64_t SpanRecorder::Record(const char* name, int64_t start_ns,
                             int64_t end_ns, int64_t parent,
                             uint64_t request_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return -1;
  spans_.push_back({name, start_ns, end_ns, parent, request_id});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<int64_t> self = SelfTimesNs(all);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\":[", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"self_ns\":%lld,\"parent\":%lld,"
                 "\"request_id\":%llu}",
                 i == 0 ? "" : ",", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

std::vector<double> DurationsSeconds(const std::vector<Span>& spans,
                                     const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (s.end_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  return out;
}

}  // namespace perfbench
