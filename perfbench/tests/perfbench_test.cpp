// Tests of the benchmark's own quantile helper and self-time computation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

// Latencies of 1..n microseconds, recorded in descending order.
LatencyHistogram one_to(int n) {
  LatencyHistogram histogram;
  for (int i = n; i >= 1; --i) histogram.record(i * 1e-6);
  return histogram;
}

TEST(Quantile, InterpolatesBetweenClosestRanks) {
  const std::vector<double> sorted = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(sorted, 0.9), 3.7);
  EXPECT_THROW((void)quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile_sorted(sorted, 1.5), std::invalid_argument);
}

TEST(Summarize, CountsSamplesBeyondTheTail) {
  const Summary p90 = summarize(one_to(101), 0.9);
  EXPECT_EQ(p90.count, 101u);
  EXPECT_NEAR(p90.p50, 51e-6, 51e-6 * 2e-3);
  EXPECT_NEAR(p90.tail, 91e-6, 91e-6 * 2e-3);
  EXPECT_EQ(p90.beyond_tail, 10u);
  EXPECT_TRUE(p90.tail_supported());
  EXPECT_EQ(p90.tail_label(), "p90");

  const Summary p99 = summarize(one_to(1001), 0.99);
  EXPECT_EQ(p99.beyond_tail, 10u);
  EXPECT_TRUE(p99.tail_supported());
  EXPECT_EQ(p99.tail_label(), "p99");
}

TEST(Summarize, FailsTheTailWithFewerThanTenBeyond) {
  EXPECT_EQ(summarize(one_to(91), 0.9).beyond_tail, 9u);  // p90 is the 82nd sample
  EXPECT_FALSE(summarize(one_to(91), 0.9).tail_supported());
  EXPECT_TRUE(summarize(one_to(92), 0.9).tail_supported());
  EXPECT_FALSE(summarize(one_to(901), 0.99).tail_supported());
  EXPECT_FALSE(summarize(LatencyHistogram{}, 0.9).tail_supported());
}

TEST(Histogram, MatchesExactQuantilesWithinABucket) {
  // Log-spread latencies from 300 ns to 3 s.
  std::vector<double> exact;
  LatencyHistogram histogram;
  std::uint64_t state = 12345;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    const double seconds = 3e-7 * std::pow(1e7, u);
    exact.push_back(seconds);
    histogram.record(seconds);
  }
  std::sort(exact.begin(), exact.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    const double want = quantile_sorted(exact, q);
    EXPECT_NEAR(summarize(histogram, q).tail, want, want * 2e-3) << q;
  }
  EXPECT_THROW((void)histogram.value_at(20000), std::out_of_range);
}

TEST(Histogram, MergeEqualsRecordingEverything) {
  LatencyHistogram left, right, both;
  for (int i = 1; i <= 500; ++i) {
    (i % 3 == 0 ? left : right).record(i * 1e-5);
    both.record(i * 1e-5);
  }
  left.merge(right);
  left.merge(LatencyHistogram{});
  ASSERT_EQ(left.count(), both.count());
  for (std::uint64_t k = 0; k < both.count(); k += 37) {
    EXPECT_DOUBLE_EQ(left.value_at(k), both.value_at(k));
  }
}

TEST(Median, OfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

SpanRecord span(const char* name, std::uint64_t id, std::uint64_t parent, double start,
                double end) {
  SpanRecord record;
  record.name = name;
  record.id = id;
  record.parent = parent;
  record.start = start;
  record.end = end;
  return record;
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  const std::vector<SpanRecord> spans = {
      span("bench.op", 1, 0, 0.0, 10.0),
      span("core.a", 2, 1, 1.0, 4.0),
      span("core.b", 3, 1, 3.0, 6.0),   // overlaps a: union [1, 6]
      span("model.c", 4, 2, 2.0, 3.0),  // inside a
      span("core.d", 5, 1, 9.0, 12.0),  // clipped to the parent's end
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 3.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
}

TEST(SelfTime, SumsPerLayer) {
  const std::vector<SpanRecord> spans = {
      span("bench.op", 1, 0, 0.0, 10.0),
      span("core.a", 2, 1, 0.0, 4.0),
      span("model.c", 3, 2, 1.0, 2.0),
      span("core.b", 4, 1, 5.0, 7.0),
  };
  const auto layers = layer_self_times(spans);
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0].layer, "bench");
  EXPECT_DOUBLE_EQ(layers[0].seconds, 4.0);
  EXPECT_EQ(layers[1].layer, "core");
  EXPECT_DOUBLE_EQ(layers[1].seconds, 3.0 + 2.0);
  EXPECT_EQ(layers[1].spans, 2u);
  EXPECT_EQ(layers[2].layer, "model");
  EXPECT_DOUBLE_EQ(layers[2].seconds, 1.0);
}

TEST(SpanLane, NestsAndSharesTheOpId) {
  SpanLane lane(2);
  {
    Span outer(&lane, "bench.op", 7);
    Span inner(&lane, "core.x", 7);
  }
  { Span untraced(nullptr, "core.y", 8); }
  ASSERT_EQ(lane.spans().size(), 2u);
  const SpanRecord& outer = lane.spans()[0];
  const SpanRecord& inner = lane.spans()[1];
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.op, 7u);
  EXPECT_EQ(inner.thread, 2);
  EXPECT_LE(outer.start, inner.start);
  EXPECT_LE(inner.end, outer.end);
}

TEST(ChromeTrace, WritesCompleteEvents) {
  std::ostringstream out;
  lbs::obs::TraceLog program;
  lbs::obs::TraceEvent event;
  event.type = lbs::obs::EventType::DpSolve;
  event.start = 1.5;
  event.duration = 0.25;
  program.events.push_back(event);
  write_chrome_trace(out, {span("core.a", 2, 1, 1.0, 2.0)}, program);
  const std::string json = out.str();
  EXPECT_NE(json.find(R"("name":"core.a","cat":"core","ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":0.000,"dur":1000000.000)"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"dp.solve")"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":500000.000,"dur":250000.000)"), std::string::npos);
  EXPECT_EQ(json.back(), '\n');
}

}  // namespace
}  // namespace perfbench
