// Self-tests of the benchmark's reporting rules.
#include <gtest/gtest.h>

#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(TailPercentile, HighestRungWithTenSamplesBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentile(0), 0.5);
  EXPECT_DOUBLE_EQ(TailPercentile(99), 0.5);    // p90 would leave 9.9
  EXPECT_DOUBLE_EQ(TailPercentile(100), 0.9);   // exactly 10 beyond p90
  EXPECT_DOUBLE_EQ(TailPercentile(999), 0.9);
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 0.99);  // exactly 10 beyond p99
  EXPECT_DOUBLE_EQ(TailPercentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailPercentile(100000), 0.9999);
  EXPECT_DOUBLE_EQ(TailPercentile(100000000), 0.9999);
}

TEST(Summarize, ReportsMedianAndRuleChosenTail) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 0.99);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);  // linear interpolation at rank 989.01
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_EQ(TailLabel(s), "p99 of 1000");

  const Summary small = Summarize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(small.tail_percentile, 0.5);
  EXPECT_DOUBLE_EQ(small.tail, small.p50);
  EXPECT_EQ(Summarize({}).count, 0u);
}

TEST(SliceMedian, MedianOfConsecutiveSliceMedians) {
  // Five slices of four; two slices hit by a 10x slowdown.
  std::vector<double> v = {1, 2, 3, 4,  10, 20, 30, 40,  2, 3, 4, 5,
                           30, 40, 50, 60,  1, 1, 2, 2};
  // Slice medians: 2.5, 25, 3.5, 45, 1.5 -> median 3.5.
  EXPECT_DOUBLE_EQ(SliceMedian(v, 5), 3.5);
  EXPECT_DOUBLE_EQ(SliceMedian(v, 1), Summarize(v).p50);
  EXPECT_DOUBLE_EQ(SliceMedian({7.0, 9.0}, 5), 8.0);  // too few: pooled
}

naru::WireEstimateResponse Response(naru::StatusCode code) {
  naru::WireEstimateResponse r;
  r.status_code = code;
  return r;
}

TEST(Outcomes, ShedsCountAsFailures) {
  Outcomes o;
  o.AddResponse(Response(naru::StatusCode::kOk));
  o.AddResponse(Response(naru::StatusCode::kOk));
  o.AddResponse(Response(naru::StatusCode::kResourceExhausted));
  o.AddResponse(Response(naru::StatusCode::kDeadlineExceeded));
  EXPECT_EQ(o.attempted, 4u);
  EXPECT_EQ(o.ok, 2u);
  EXPECT_EQ(o.shed, 2u);
  EXPECT_EQ(o.failed(), 2u);
  EXPECT_DOUBLE_EQ(o.FailedFrac(), 0.5);
}

TEST(Outcomes, ErrorsAndLostRequestsCountAsFailures) {
  Outcomes o;
  o.AddResponse(Response(naru::StatusCode::kOk));
  o.AddResponse(Response(naru::StatusCode::kInvalidArgument));
  o.AddTransportFailure();
  o.AddTransportFailure();
  EXPECT_EQ(o.attempted, 4u);
  EXPECT_EQ(o.failed(), 3u);
  EXPECT_DOUBLE_EQ(o.FailedFrac(), 0.75);

  Outcomes merged;
  merged.Merge(o);
  merged.Merge(o);
  EXPECT_EQ(merged.attempted, 8u);
  EXPECT_EQ(merged.transport, 4u);
  EXPECT_DOUBLE_EQ(merged.FailedFrac(), 0.75);
  EXPECT_DOUBLE_EQ(Outcomes{}.FailedFrac(), 0.0);
}

TEST(QError, DerivedFromSelectivityTimesRows) {
  // 0.001 of 20000 rows = 20 estimated vs 10 true: off by 2x either way.
  EXPECT_DOUBLE_EQ(QErrorOfSelectivity(0.001, 10, 20000), 2.0);
  EXPECT_DOUBLE_EQ(QErrorOfSelectivity(0.00025, 10, 20000), 2.0);
  EXPECT_DOUBLE_EQ(QErrorOfSelectivity(0.0005, 10, 20000), 1.0);
  // Both cardinalities are floored at 1 row.
  EXPECT_DOUBLE_EQ(QErrorOfSelectivity(0.0, 0, 20000), 1.0);
  EXPECT_DOUBLE_EQ(QErrorOfSelectivity(0.0, 5, 20000), 5.0);
  EXPECT_DOUBLE_EQ(QErrorOfSelectivity(0.00001, 0, 20000), 1.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const Clock::time_point t0{};
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  std::vector<Span> spans = {
      {"net.request", at(0), at(100), 1, 0, 7},
      {"net.send", at(10), at(30), 2, 1, 7},     // covered 10..30
      {"serve.x", at(20), at(50), 3, 1, 7},      // overlaps: union 10..50
      {"core.dist", at(90), at(120), 4, 1, 7},   // clipped to 90..100
      {"core.dist", at(0), at(5), 5, 0, 0},      // a root of its own
  };
  const std::vector<double> self = SelfTimesMs(spans);
  EXPECT_DOUBLE_EQ(self[0], 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self[1], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 30.0);
  EXPECT_DOUBLE_EQ(self[3], 30.0);
  EXPECT_DOUBLE_EQ(self[4], 5.0);
}

TEST(CoveredMs, UnionOfNamedSpansInsideTheWindow) {
  const Clock::time_point t0{};
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const std::vector<Span> spans = {
      {"core.dist", at(0), at(20), 1, 0, 0},
      {"core.dist", at(10), at(30), 2, 0, 0},  // overlaps the first
      {"core.dist", at(90), at(200), 3, 0, 0},  // clipped at 100
      {"net.send", at(40), at(60), 4, 0, 0},    // another name
  };
  EXPECT_DOUBLE_EQ(CoveredMs(spans, "core.dist", at(5), at(100)), 35.0);
  EXPECT_DOUBLE_EQ(CoveredMs(spans, "net.send", at(0), at(100)), 20.0);
  EXPECT_DOUBLE_EQ(CoveredMs(spans, "plan.compile", at(0), at(100)), 0.0);
}

}  // namespace
}  // namespace perfbench
