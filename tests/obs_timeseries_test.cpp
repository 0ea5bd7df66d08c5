// Sim-time-aligned telemetry: TimeSeriesShard binning (including the
// bin-cache and pending-count fast paths), the FGCSMET1 writer/view
// roundtrip with block skipping, shard merge, and byte-determinism of
// the segment format.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fgcs/obs/metrics.hpp"
#include "fgcs/obs/timeseries.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::obs {
namespace {

using sim::SimDuration;
using sim::SimTime;

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ObsTimeSeries, WriterViewRoundtrip) {
  const std::string path = temp_path("obs_ts_roundtrip.met1");
  const SimTime start = SimTime::epoch();
  const SimTime end = start + SimDuration::hours(4);

  {
    MetricsWriterV1 writer(path, start, end, SimDuration::hours(1));
    const std::uint32_t a = writer.series_id("alpha", SeriesKind::kCounter);
    const std::uint32_t b = writer.series_id("beta", SeriesKind::kGauge);
    EXPECT_EQ(writer.series_id("alpha", SeriesKind::kCounter), a);
    writer.append(a, start + SimDuration::hours(1), 10.0);
    writer.append(a, start + SimDuration::hours(2), 25.0);
    writer.append(b, start + SimDuration::hours(2), -1.5);
    writer.finish();
    EXPECT_EQ(writer.samples_written(), 3u);
  }

  MetricsView view(path);
  EXPECT_EQ(view.horizon_start(), start);
  EXPECT_EQ(view.horizon_end(), end);
  EXPECT_EQ(view.resolution(), SimDuration::hours(1));
  EXPECT_EQ(view.size(), 3u);
  ASSERT_EQ(view.series().size(), 2u);
  EXPECT_EQ(view.series()[0].name, "alpha");
  EXPECT_EQ(view.series()[1].kind, SeriesKind::kGauge);
  ASSERT_TRUE(view.find_series("beta").has_value());
  EXPECT_FALSE(view.find_series("gamma").has_value());

  std::vector<MetricPoint> points;
  view.for_each([&](const MetricPoint& p) { points.push_back(p); });
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].at, start + SimDuration::hours(1));
  EXPECT_DOUBLE_EQ(points[1].value, 25.0);
  EXPECT_DOUBLE_EQ(points[2].value, -1.5);
  std::remove(path.c_str());
}

TEST(ObsTimeSeries, MultiBlockSegmentFiltersBySeriesAndTime) {
  const std::string path = temp_path("obs_ts_blocks.met1");
  const SimTime start = SimTime::epoch();
  const SimTime end = start + SimDuration::hours(100);

  {
    // Tiny blocks force several of them so for_each_of exercises the
    // block-skip path on both the series and the time axis.
    MetricsWriterV1 writer(path, start, end, SimDuration::hours(1), 8);
    const std::uint32_t a = writer.series_id("alpha", SeriesKind::kCounter);
    const std::uint32_t b = writer.series_id("beta", SeriesKind::kCounter);
    for (int i = 0; i < 50; ++i) {
      writer.append(a, start + SimDuration::hours(i), i);
      writer.append(b, start + SimDuration::hours(i), 100 + i);
    }
    writer.finish();
  }

  MetricsView view(path);
  EXPECT_GE(view.block_count(), 2u);
  EXPECT_EQ(view.size(), 100u);

  const auto b = view.find_series("beta");
  ASSERT_TRUE(b.has_value());
  std::vector<double> values;
  view.for_each_of(*b, start + SimDuration::hours(10),
                   start + SimDuration::hours(12),
                   [&](const MetricPoint& p) { values.push_back(p.value); });
  ASSERT_EQ(values.size(), 3u);
  EXPECT_DOUBLE_EQ(values[0], 110.0);
  EXPECT_DOUBLE_EQ(values[2], 112.0);
  std::remove(path.c_str());
}

TEST(ObsTimeSeries, ShardBinsSamplesIncludingEdgeAndCachePaths) {
  const SimTime start = SimTime::epoch();
  const SimTime end = start + SimDuration::hours(3);
  TimeSeriesShard shard(start, end, SimDuration::hours(1));
  EXPECT_EQ(shard.bin_count(), 3u);

  // Repeated hits in one bin ride the pending-count fast path; the total
  // must settle regardless of when it is read.
  for (int i = 0; i < 100; ++i) {
    shard.on_sample(start + SimDuration::minutes(30) + SimDuration::seconds(i));
  }
  EXPECT_EQ(shard.total_samples(), 100u);
  shard.on_sample(start + SimDuration::minutes(90));   // second bin
  shard.on_sample(start + SimDuration::minutes(30));   // back to the first
  // Out-of-horizon samples are absorbed by the edge bins, not dropped.
  shard.on_sample(start - SimDuration::hours(5));
  shard.on_sample(end + SimDuration::hours(5));
  EXPECT_EQ(shard.total_samples(), 104u);
}

TEST(ObsTimeSeries, AddFoldsShardsWithMatchingGeometry) {
  const SimTime start = SimTime::epoch();
  const SimTime end = start + SimDuration::hours(2);
  TimeSeriesShard a(start, end, SimDuration::hours(1));
  TimeSeriesShard b(start, end, SimDuration::hours(1));
  a.on_sample(start + SimDuration::minutes(10));
  b.on_sample(start + SimDuration::minutes(20));
  b.on_sample(start + SimDuration::minutes(70));
  b.record({.at = start + SimDuration::minutes(70),
            .kind = FlightEventKind::kStateTransition,
            .a = 1,
            .b = 3});
  a.add(b);
  EXPECT_EQ(a.total_samples(), 3u);
  EXPECT_EQ(b.total_samples(), 2u);  // add() must not disturb the source
}

TEST(ObsTimeSeries, SegmentBytesAreDeterministic) {
  const SimTime start = SimTime::epoch();
  const SimTime end = start + SimDuration::hours(6);
  const auto write_one = [&](const std::string& path) {
    TimeSeriesShard shard(start, end, SimDuration::hours(1));
    for (int i = 0; i < 500; ++i) {
      shard.on_sample(start + SimDuration::minutes(i));
    }
    shard.record({.at = start + SimDuration::hours(1),
                  .kind = FlightEventKind::kEpisodeOpened});
    shard.record({.at = start + SimDuration::hours(2),
                  .kind = FlightEventKind::kEpisodeClosed,
                  .dur = SimDuration::minutes(45)});
    MetricsWriterV1 writer(path, start, end, SimDuration::hours(1));
    shard.write_series(writer, {{"shard", "0001"}});
    writer.finish();
  };
  const std::string p1 = temp_path("obs_ts_det_a.met1");
  const std::string p2 = temp_path("obs_ts_det_b.met1");
  write_one(p1);
  write_one(p2);
  const std::string b1 = slurp(p1);
  const std::string b2 = slurp(p2);
  EXPECT_FALSE(b1.empty());
  EXPECT_EQ(b1, b2);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ObsTimeSeries, TruncatedSegmentIsAnIoError) {
  const std::string path = temp_path("obs_ts_trunc.met1");
  const SimTime start = SimTime::epoch();
  {
    MetricsWriterV1 writer(path, start, start + SimDuration::hours(1),
                           SimDuration::hours(1));
    const std::uint32_t a = writer.series_id("alpha", SeriesKind::kCounter);
    writer.append(a, start, 1.0);
    writer.finish();
  }
  const std::string whole = slurp(path);
  ASSERT_GT(whole.size(), 16u);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(whole.data(), static_cast<std::streamsize>(whole.size() - 9));
  }
  EXPECT_THROW(MetricsView{path}, IoError);
  std::remove(path.c_str());
}

TEST(ObsTimeSeries, QuantileFromBucketsInterpolates) {
  // 10 observations <=1, 80 in (1,2], 10 in (2,+inf).
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::uint64_t> counts = {10, 80, 10};
  // Target 5 of 100 lands mid-way through the first bucket [0, 1].
  EXPECT_DOUBLE_EQ(quantile_from_buckets(bounds, counts, 0.05), 0.5);
  // Target 50 is 40 observations into the 80 of bucket (1, 2].
  EXPECT_DOUBLE_EQ(quantile_from_buckets(bounds, counts, 0.50), 1.5);
  // Mass in the unbounded tail clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(quantile_from_buckets(bounds, counts, 0.99), 2.0);
}

}  // namespace
}  // namespace fgcs::obs
