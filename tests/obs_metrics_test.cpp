// Counter/gauge/histogram semantics, labeled families, concurrent
// increments, and the CSV snapshot export.
#include <gtest/gtest.h>

#include <sstream>

#include "fgcs/obs/metrics.hpp"
#include "fgcs/util/csv.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/parallel.hpp"

namespace fgcs::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAddMax) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
  g.set_max(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.set_max(3.0);  // lower: no change
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(HistogramMetric, BucketsAndQuantiles) {
  Histogram h({1.0, 2.0, 4.0});
  for (const double v : {0.5, 0.9, 1.5, 3.0, 100.0}) h.observe(v);

  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.9);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(counts[0], 2u);      // <= 1
  EXPECT_EQ(counts[1], 1u);      // <= 2
  EXPECT_EQ(counts[2], 1u);      // <= 4
  EXPECT_EQ(counts[3], 1u);      // overflow

  // The median observation lands in the second bucket (1, 2].
  const double p50 = h.quantile(0.5);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  // Quantiles in the overflow bucket clamp to the top bound.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(Histogram({1.0}).quantile(0.5), 0.0);  // empty
}

TEST(HistogramMetric, ValueOnBoundGoesToLowerBucket) {
  Histogram h({1.0, 2.0});
  h.observe(1.0);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
}

TEST(HistogramMetric, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), fgcs::ConfigError);
  EXPECT_THROW(Histogram({2.0, 1.0}), fgcs::ConfigError);
  EXPECT_THROW(Histogram({1.0, 1.0}), fgcs::ConfigError);
}

TEST(MetricRegistry, SameSeriesSameObject) {
  MetricRegistry registry;
  Counter& a = registry.counter("x.count", {{"k", "v"}});
  Counter& b = registry.counter("x.count", {{"k", "v"}});
  EXPECT_EQ(&a, &b);

  // Label order does not matter; the key is canonicalized.
  Counter& c =
      registry.counter("y", {{"b", "2"}, {"a", "1"}});
  Counter& d =
      registry.counter("y", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(&c, &d);

  // Different labels are different family members.
  EXPECT_NE(&a, &registry.counter("x.count", {{"k", "other"}}));
  EXPECT_EQ(registry.size(), 3u);
}

TEST(MetricRegistry, KindMismatchThrows) {
  MetricRegistry registry;
  registry.counter("metric");
  EXPECT_THROW(registry.gauge("metric"), fgcs::ConfigError);
  EXPECT_THROW(registry.histogram("metric"), fgcs::ConfigError);
}

TEST(MetricRegistry, ConcurrentIncrementsAreLossless) {
  MetricRegistry registry;
  Counter& counter = registry.counter("parallel.count");
  Histogram& histogram = registry.histogram("parallel.hist", {}, {0.5, 1.5});
  constexpr std::size_t kThreads = 16;
  constexpr std::uint64_t kPerThread = 10000;

  util::parallel_for(kThreads, [&](std::size_t i) {
    for (std::uint64_t n = 0; n < kPerThread; ++n) {
      counter.inc();
      histogram.observe(i % 2 == 0 ? 1.0 : 2.0);
    }
  });

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  const auto counts = histogram.bucket_counts();
  EXPECT_EQ(counts[1], kThreads / 2 * kPerThread);  // the 1.0 observations
  EXPECT_EQ(counts[2], kThreads / 2 * kPerThread);  // the 2.0 overflow
}

TEST(MetricRegistry, CsvSnapshotRoundTrips) {
  MetricRegistry registry;
  registry.counter("sim.events_executed").inc(123);
  registry.gauge("sim.max_queue_depth").set(7.0);
  registry.counter("detector.transitions", {{"from", "S1"}, {"to", "S3"}})
      .inc(4);
  registry.histogram("scope.seconds", {{"scope", "testbed/run"}})
      .observe(0.25);

  std::stringstream out;
  registry.write_csv(out);
  util::CsvReader reader(out);

  ASSERT_EQ(reader.header()[0], "metric");
  ASSERT_EQ(reader.rows().size(), 4u);

  bool saw_transition = false;
  for (const auto& row : reader.rows()) {
    if (row[reader.column("metric")] == "detector.transitions") {
      saw_transition = true;
      EXPECT_EQ(row[reader.column("labels")], "from=S1,to=S3");
      EXPECT_EQ(row[reader.column("type")], "counter");
      EXPECT_EQ(row[reader.column("value")], "4");
    }
  }
  EXPECT_TRUE(saw_transition);
}

TEST(MetricSample, SeriesRendering) {
  MetricSample s;
  s.name = "detector.transitions";
  EXPECT_EQ(s.series(), "detector.transitions");
  s.labels = {{"from", "S1"}, {"to", "S3"}};
  EXPECT_EQ(s.series(), "detector.transitions{from=S1,to=S3}");
}

TEST(HistogramMetric, DefaultTimeBoundsAreAscending) {
  const auto bounds = Histogram::default_time_bounds();
  ASSERT_GT(bounds.size(), 10u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  EXPECT_DOUBLE_EQ(bounds.back(), 100.0);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

}  // namespace
}  // namespace fgcs::obs
