// Span self-time arithmetic with hand-computed intervals.

#include "trace.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(SelfTimeTest, ChildrenAreSubtractedOnce) {
  SpanLog log(true);
  // root [0, 100): children [10, 30), [20, 50) overlap -> union [10, 50) = 40,
  // and [90, 120) sticks out past the root -> only [90, 100) = 10 counts.
  const int32_t root = log.Add("request", 0, 100, -1, 7);
  log.Add("decode", 10, 30, root, 7);
  log.Add("decode", 20, 50, root, 7);
  const int32_t score = log.Add("score", 90, 120, root, 7);
  // A grandchild only reduces its own parent.
  log.Add("lookup", 95, 105, score, 7);
  const auto self = SelfTimes(log.spans());
  EXPECT_EQ(self.at("request").count, 1u);
  EXPECT_EQ(self.at("request").total_ns, 100);
  EXPECT_EQ(self.at("request").self_ns, 100 - 40 - 10);
  EXPECT_EQ(self.at("decode").count, 2u);
  EXPECT_EQ(self.at("decode").total_ns, 20 + 30);
  EXPECT_EQ(self.at("decode").self_ns, 50);
  EXPECT_EQ(self.at("score").self_ns, 30 - 10);
  EXPECT_EQ(self.at("lookup").self_ns, 10);
}

TEST(SelfTimeTest, NestedChildrenDoNotDoubleCount) {
  SpanLog log(true);
  const int32_t root = log.Add("a", 0, 50, -1, 1);
  log.Add("b", 5, 45, root, 1);
  log.Add("c", 10, 20, root, 1);  // inside b's interval: union is still 40
  EXPECT_EQ(SelfTimes(log.spans()).at("a").self_ns, 10);
}

TEST(SpanLogTest, DisabledLogRecordsNothing) {
  SpanLog log(false);
  {
    ScopedSpan span(log, "request");
    EXPECT_EQ(span.index(), -1);
  }
  EXPECT_EQ(log.Add("x", 0, 1, -1, 0), -1);
  EXPECT_TRUE(log.spans().empty());
}

TEST(SpanLogTest, ScopedSpansNestUnderTheirParent) {
  SpanLog log(true);
  {
    ScopedSpan root(log, "request", -1, 3);
    ScopedSpan child(log, "decode", root.index(), 3);
    EXPECT_EQ(child.index(), 1);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].request_id, 3u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
}

}  // namespace
}  // namespace perfbench
