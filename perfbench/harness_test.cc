// Self-tests of the benchmark harness: the percentile rule, seeded
// generators, due-time latency of the open loop, and span self time.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "harness.h"

namespace perfbench {
namespace {

TEST(PercentileRule, HighestPercentileWithTenSamplesBeyond) {
  // Nearest rank: p99 of 1000 samples is rank 990, leaving exactly ten.
  EXPECT_EQ(SupportedPercentile(1000, 99), 99);
  EXPECT_EQ(SupportedPercentile(999, 99), 95);
  EXPECT_EQ(SupportedPercentile(10000, 99.9), 99.9);
  EXPECT_EQ(SupportedPercentile(10000, 99), 99);  // capped at the wanted one
  EXPECT_EQ(SupportedPercentile(200, 99), 95);
  EXPECT_EQ(SupportedPercentile(199, 99), 90);
  EXPECT_EQ(SupportedPercentile(100, 99), 90);
  EXPECT_EQ(SupportedPercentile(40, 99), 75);
  EXPECT_EQ(SupportedPercentile(20, 99), 50);
  EXPECT_EQ(SupportedPercentile(19, 99), 0);
  EXPECT_EQ(SupportedPercentile(0, 99), 0);
}

TEST(PercentileRule, SummaryReportsSampleCountAndTail) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Summary s = Summarize(v, 99);
  EXPECT_EQ(s.n, 1000);
  EXPECT_EQ(s.p50, 500.5);
  EXPECT_EQ(s.tail_percentile, 99);
  EXPECT_EQ(s.tail, 990);
  v.resize(15);
  s = Summarize(v, 99);
  EXPECT_EQ(s.tail_percentile, 0);
  EXPECT_EQ(s.tail, s.p50);
}

TEST(Generators, ZipfIsSeedDeterministicAndSkewed) {
  Zipf zipf(1000, 1.0);
  Rng a(7), b(7), c(8);
  std::vector<int64_t> xa, xb, xc;
  for (int i = 0; i < 2000; ++i) {
    xa.push_back(zipf.Next(&a));
    xb.push_back(zipf.Next(&b));
    xc.push_back(zipf.Next(&c));
  }
  EXPECT_EQ(xa, xb);
  EXPECT_NE(xa, xc);
  int64_t top = 0;
  for (int64_t x : xa) {
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 1000);
    top += x == 0;
  }
  // P(rank 0) = 1 / H(1000) ~ 0.134.
  EXPECT_GT(top, 2000 * 0.10);
  EXPECT_LT(top, 2000 * 0.17);
}

TEST(Generators, PoissonIsSeedDeterministicWithTheRequestedRate) {
  Rng a(11), b(11), c(12);
  const auto sa = PoissonSchedule(100, 50, &a);
  EXPECT_EQ(sa, PoissonSchedule(100, 50, &b));
  EXPECT_NE(sa, PoissonSchedule(100, 50, &c));
  ASSERT_EQ(sa.size(), 5000u);
  for (size_t i = 1; i < sa.size(); ++i) ASSERT_GE(sa[i], sa[i - 1]);
  EXPECT_GE(sa.front(), 0);
  EXPECT_LT(sa.back(), 50);
  // Exponential gaps: mean 1/rate, and about e^-1 of them longer than that.
  int64_t long_gaps = 0;
  for (size_t i = 1; i < sa.size(); ++i) long_gaps += sa[i] - sa[i - 1] > 0.01;
  EXPECT_NEAR(static_cast<double>(long_gaps) / 4999, std::exp(-1.0), 0.03);
}

TEST(OpenLoop, StallInflatesLatencyOfLaterRequests) {
  // One sender, a request due every 2 ms; request 5 stalls for 60 ms. The
  // requests due during the stall did no work themselves but were sent late,
  // and latency from the due time must show it.
  std::vector<double> due;
  for (int i = 0; i < 40; ++i) due.push_back(0.002 * i);
  OpenLoopResult r = RunOpenLoop(due, 1, [](int64_t i, int thread) {
    EXPECT_EQ(thread, 0);
    if (i == 5) std::this_thread::sleep_for(std::chrono::milliseconds(60));
    return true;
  });
  ASSERT_EQ(r.attempted, 40);
  ASSERT_EQ(r.failed, 0);
  ASSERT_EQ(r.latency_ms.size(), 40u);
  EXPECT_GE(r.latency_ms[5], 60);
  // Request 6 was due 2 ms after request 5 and waited out the rest.
  EXPECT_GE(r.latency_ms[6], 50);
  EXPECT_GE(r.lag_ms[6], 50);
  EXPECT_GE(r.latency_ms[20], 20);
  // Well after the backlog drained, latency is back near zero.
  EXPECT_LT(r.latency_ms[39], 10);
}

TEST(OpenLoop, FailuresAreCountedNotTimed) {
  std::vector<double> due(10, 0.0);
  OpenLoopResult r = RunOpenLoop(due, 2, [](int64_t i, int) { return i % 2 == 0; });
  EXPECT_EQ(r.attempted, 10);
  EXPECT_EQ(r.failed, 5);
  EXPECT_EQ(r.latency_ms.size(), 5u);
}

TEST(Spans, SelfTimeSubtractsNestedChildren) {
  // root [0,100) with children [10,30) and [20,50) (overlapping: union 40)
  // and grandchild [25,35) inside the second child.
  std::vector<Span> s = {
      {"root", 0, 100, 1, 0, 7, 1},  {"a", 10, 30, 2, 1, 7, 1},
      {"b", 20, 50, 3, 1, 7, 1},     {"c", 25, 35, 4, 3, 7, 1},
      {"other", 200, 210, 5, 0, 8, 1},
  };
  auto self = SelfMicros(s);
  EXPECT_EQ(self["root"], 60);
  EXPECT_EQ(self["a"], 20);
  EXPECT_EQ(self["b"], 20);
  EXPECT_EQ(self["c"], 10);
  EXPECT_EQ(self["other"], 10);
}

TEST(Spans, RecorderNestsAndInheritsRequestIds) {
  spans::SetEnabled(true);
  {
    ScopedSpan outer("outer", 42);
    { ScopedSpan inner("inner"); }
  }
  { ScopedSpan lone("lone"); }
  spans::SetEnabled(false);
  { ScopedSpan ignored("ignored"); }
  std::vector<Span> got = spans::Drain();
  ASSERT_EQ(got.size(), 3u);
  const Span* outer = nullptr;
  const Span* inner = nullptr;
  for (const Span& s : got) {
    if (s.name == "outer") outer = &s;
    if (s.name == "inner") inner = &s;
    EXPECT_NE(s.name, "ignored");
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(inner->request, 42);
  EXPECT_EQ(outer->parent, 0);
  EXPECT_LE(outer->start_us, inner->start_us);
  EXPECT_GE(outer->end_us, inner->end_us);
  EXPECT_TRUE(spans::Drain().empty());
}

}  // namespace
}  // namespace perfbench
