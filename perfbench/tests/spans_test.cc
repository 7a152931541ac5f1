// Tests of the benchmark's span recorder: nesting and self-time arithmetic.
#include "spans.h"

#include <gtest/gtest.h>

#include <thread>

namespace perfbench {
namespace {

Span At(const char* name, int64_t start, int64_t end, int64_t parent) {
  return {name, start, end, parent, 0};
}

TEST(SelfTimes, SubtractsChildrenFromParent) {
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("a", 10, 30, 0), At("b", 50, 90, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 20 - 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTimes, CountsOverlappingChildrenOnce) {
  // Children from two threads overlap on [20, 30]; their union is [10, 60].
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("a", 10, 30, 0), At("b", 20, 60, 0),
                                   At("c", 25, 28, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 50);
}

TEST(SelfTimes, ClipsChildrenToTheParentInterval) {
  const std::vector<Span> spans = {At("root", 10, 50, -1),
                                   At("early", 0, 20, 0),
                                   At("late", 40, 70, 0)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 40 - 10 - 10);
}

TEST(SelfTimes, OnlyDirectChildrenCount) {
  // The grandchild is inside the child, so it does not reduce the root twice.
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("child", 0, 60, 0),
                                   At("grandchild", 10, 50, 1)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 40);
}

TEST(SelfTimes, OpenSpansHaveNoSelfTimeAndAreNotChildren) {
  const std::vector<Span> spans = {At("root", 0, 100, -1),
                                   At("open", 10, -1, 0)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100);
  EXPECT_EQ(self[1], 0);
}

TEST(SpanRecorder, ScopesNestOnOneThread) {
  SpanRecorder rec;
  rec.set_enabled(true);
  {
    Scope outer(rec, "outer", 7);
    { Scope inner(rec, "inner", 7); }
    { Scope sibling(rec, "sibling"); }
  }
  { Scope next(rec, "next"); }
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[0].request_id, 7u);
  EXPECT_EQ(spans[1].request_id, 7u);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[2].end_ns);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], (spans[0].end_ns - spans[0].start_ns) -
                         (spans[1].end_ns - spans[1].start_ns) -
                         (spans[2].end_ns - spans[2].start_ns));
}

TEST(SpanRecorder, ThreadsDoNotAdoptEachOthersParents) {
  SpanRecorder rec;
  rec.set_enabled(true);
  Scope outer(rec, "outer");
  std::thread([&] { Scope other(rec, "other"); }).join();
  const std::vector<Span> spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, -1);
}

TEST(SpanRecorder, DisabledRecordsNothing) {
  SpanRecorder rec;
  { Scope s(rec, "ignored"); }
  EXPECT_EQ(rec.Record("ignored", 0, 1, -1), -1);
  EXPECT_TRUE(rec.spans().empty());
}

TEST(SpanRecorder, ExplicitRecordsJoinByParentAndRequest) {
  SpanRecorder rec;
  rec.set_enabled(true);
  const int64_t request = rec.Record("request", 100, 200, -1, 3);
  rec.Record("stage", 120, 150, request, 3);
  const std::vector<Span> spans = rec.spans();
  EXPECT_EQ(spans[1].parent, request);
  EXPECT_EQ(SelfTimesNs(spans)[0], 70);
  const std::vector<double> stage = DurationsSeconds(spans, "stage");
  ASSERT_EQ(stage.size(), 1u);
  EXPECT_DOUBLE_EQ(stage[0], 30e-9);
}

}  // namespace
}  // namespace perfbench
