// AvailabilityFeed: incremental ingestion, copy-on-write snapshots, the
// observer event seam, and the monotone-ingest contract.
#include <gtest/gtest.h>

#include "fgcs/obs/observer.hpp"
#include "fgcs/serve/feed.hpp"
#include "fgcs/serve/query.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::serve {
namespace {

using monitor::AvailabilityState;
using sim::SimDuration;
using sim::SimTime;

trace::UnavailabilityRecord rec(trace::MachineId m, double start_h,
                                double end_h,
                                AvailabilityState cause =
                                    AvailabilityState::kS3CpuUnavailable) {
  trace::UnavailabilityRecord r;
  r.machine = m;
  r.start = SimTime::epoch() + SimDuration::from_seconds(start_h * 3600.0);
  r.end = SimTime::epoch() + SimDuration::from_seconds(end_h * 3600.0);
  r.cause = cause;
  return r;
}

FeedConfig small_config(std::uint32_t machines = 4) {
  FeedConfig fc;
  fc.machines = machines;
  fc.horizon_start = SimTime::epoch();
  fc.publish_every = 0;  // explicit publish() only
  return fc;
}

TEST(ServeFeed, FreshFeedPublishesAnEmptyVersionZeroSnapshot) {
  AvailabilityFeed feed(small_config());
  const auto snap = feed.snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_EQ(snap->events, 0u);
  ASSERT_EQ(snap->machines.size(), 4u);
  for (const auto& m : snap->machines) {
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->episodes, 0u);
    EXPECT_FALSE(m->open);
  }
  EXPECT_EQ(feed.watermark(2), SimTime::epoch());
}

TEST(ServeFeed, IngestFoldsEpisodesIntoIncrementalState) {
  AvailabilityFeed feed(small_config());
  feed.ingest(rec(1, 10.0, 10.5, AvailabilityState::kS5MachineUnavailable));
  feed.ingest(rec(1, 14.0, 14.25));
  feed.publish();

  const auto snap = feed.snapshot();
  EXPECT_EQ(snap->version, 1u);
  EXPECT_EQ(snap->events, 2u);
  const MachineState& m = *snap->machines[1];
  EXPECT_EQ(m.episodes, 2u);
  EXPECT_EQ(m.last_start, SimTime::epoch() + SimDuration::from_seconds(14.0 * 3600.0));
  EXPECT_EQ(m.last_end, SimTime::epoch() + SimDuration::from_seconds(14.25 * 3600.0));
  // One availability gap: 10.5h -> 14.0h, weekday class (epoch = Monday).
  ASSERT_EQ(m.gaps[0].sorted_h.size(), 1u);
  EXPECT_DOUBLE_EQ(m.gaps[0].sorted_h[0], 3.5);
  EXPECT_TRUE(m.gaps[1].sorted_h.empty());
  EXPECT_DOUBLE_EQ(m.down_sum_h, 0.75);
  EXPECT_EQ(m.cause_episodes[4], 1u);  // S5
  EXPECT_EQ(m.cause_episodes[2], 1u);  // S3
  // Durations: 30 min -> (15, 60] bucket; 15 min -> (5, 15] bucket.
  EXPECT_EQ(m.duration_buckets[3], 1u);
  EXPECT_EQ(m.duration_buckets[2], 1u);
  // Untouched machines share the pristine state.
  EXPECT_EQ(snap->machines[0]->episodes, 0u);
}

TEST(ServeFeed, IngestEnforcesTheMonotoneContract) {
  AvailabilityFeed feed(small_config());
  feed.ingest(rec(0, 5.0, 6.0));
  EXPECT_THROW(feed.ingest(rec(0, 4.0, 4.5)), ConfigError);     // regression
  EXPECT_THROW(feed.ingest(rec(9, 7.0, 8.0)), ConfigError);     // bad machine
  EXPECT_THROW(feed.ingest(rec(1, 3.0, 2.0)), ConfigError);     // end < start
  // A different machine's earlier episode is fine: monotone per machine.
  feed.ingest(rec(1, 1.0, 2.0));
  EXPECT_EQ(feed.events_ingested(), 2u);
}

TEST(ServeFeed, PinnedSnapshotsAreImmuneToLaterIngest) {
  AvailabilityFeed feed(small_config());
  feed.ingest(rec(0, 1.0, 2.0));
  feed.publish();
  const auto pinned = feed.snapshot();
  const std::uint64_t episodes_then = pinned->machines[0]->episodes;

  feed.ingest(rec(0, 3.0, 4.0));
  feed.ingest(rec(0, 5.0, 6.0));
  feed.publish();

  EXPECT_EQ(pinned->machines[0]->episodes, episodes_then);
  EXPECT_EQ(feed.snapshot()->machines[0]->episodes, 3u);
  EXPECT_GT(feed.snapshot()->version, pinned->version);
}

TEST(ServeFeed, AutoPublishesEveryNIngests) {
  FeedConfig fc = small_config();
  fc.publish_every = 2;
  AvailabilityFeed feed(fc);
  feed.ingest(rec(0, 1.0, 1.5));
  EXPECT_EQ(feed.snapshot()->version, 0u);  // not yet
  feed.ingest(rec(0, 2.0, 2.5));
  EXPECT_EQ(feed.snapshot()->version, 1u);  // swapped at N=2
  EXPECT_EQ(feed.snapshot()->events, 2u);
  feed.ingest(rec(0, 3.0, 3.5));
  feed.ingest(rec(0, 4.0, 4.5));
  EXPECT_EQ(feed.snapshot()->version, 2u);
  EXPECT_EQ(feed.snapshots_published(), 2u);
}

TEST(ServeFeed, OpenEpisodeMarksTheMachineDownUntilClosed) {
  AvailabilityFeed feed(small_config());
  feed.open_episode(0, SimTime::epoch() + SimDuration::from_seconds(10.0 * 3600.0));
  feed.publish();
  const QueryEngine engine(feed);
  const auto down = engine.query(*feed.snapshot(),
                                 {0, SimTime::epoch() + SimDuration::from_seconds(11.0 * 3600.0),
                                  SimDuration::from_seconds(1.0 * 3600.0)});
  EXPECT_EQ(down.p_available, 0.0);
  EXPECT_EQ(feed.watermark(0), SimTime::epoch() + SimDuration::from_seconds(10.0 * 3600.0));

  feed.ingest(rec(0, 10.0, 12.0));  // the matching close
  feed.publish();
  const auto after = engine.query(*feed.snapshot(),
                                  {0, SimTime::epoch() + SimDuration::from_seconds(13.0 * 3600.0),
                                   SimDuration::from_seconds(1.0 * 3600.0)});
  EXPECT_GT(after.p_available, 0.0);
}

TEST(ServeFeed, EventSinkReconstructsRecordsFromCloseEvents) {
  AvailabilityFeed by_events(small_config());
  AvailabilityFeed by_records(small_config());

  const SimTime open_at = SimTime::epoch() + SimDuration::from_seconds(8.0 * 3600.0);
  const SimTime close_at = SimTime::epoch() + SimDuration::from_seconds(9.5 * 3600.0);
  obs::FlightEvent opened;
  opened.at = open_at;
  opened.kind = obs::FlightEventKind::kEpisodeOpened;
  opened.machine = 2;
  opened.a = static_cast<std::int32_t>(AvailabilityState::kS4MemoryThrashing);
  obs::FlightEvent closed;
  closed.at = close_at;
  closed.kind = obs::FlightEventKind::kEpisodeClosed;
  closed.machine = 2;
  closed.a = static_cast<std::int32_t>(AvailabilityState::kS4MemoryThrashing);
  closed.dur = close_at - open_at;
  by_events.on_flight_event(opened);
  by_events.on_flight_event(closed);

  trace::UnavailabilityRecord r = rec(2, 8.0, 9.5);
  r.cause = AvailabilityState::kS4MemoryThrashing;
  by_records.open_episode(2, open_at);
  by_records.ingest(r);

  by_events.publish();
  by_records.publish();
  const MachineState& a = *by_events.snapshot()->machines[2];
  const MachineState& b = *by_records.snapshot()->machines[2];
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.last_start, b.last_start);
  EXPECT_EQ(a.last_end, b.last_end);
  EXPECT_EQ(a.open, b.open);
  EXPECT_DOUBLE_EQ(a.down_sum_h, b.down_sum_h);
  EXPECT_EQ(a.cause_episodes[3], 1u);
}

TEST(ServeFeed, ObserverSeamDeliversEpisodesAndCountsIngests) {
  AvailabilityFeed feed(small_config());
  obs::Observer observer;
  observer.set_event_sink(&feed);
  obs::ScopedObserver guard(&observer);
  obs::TrackScope track(3);

  const int cause = static_cast<int>(AvailabilityState::kS5MachineUnavailable);
  obs::emit(obs::FlightEventKind::kEpisodeOpened,
            SimTime::epoch() + SimDuration::from_seconds(1.0 * 3600.0), cause);
  obs::emit(obs::FlightEventKind::kEpisodeClosed,
            SimTime::epoch() + SimDuration::from_seconds(1.5 * 3600.0), cause,
            0, SimDuration::from_seconds(0.5 * 3600.0));

  EXPECT_EQ(feed.events_ingested(), 1u);
  feed.publish();
  const MachineState& m = *feed.snapshot()->machines[3];
  EXPECT_EQ(m.episodes, 1u);
  EXPECT_EQ(m.last_start, SimTime::epoch() + SimDuration::from_seconds(1.0 * 3600.0));
  EXPECT_EQ(m.last_end, SimTime::epoch() + SimDuration::from_seconds(1.5 * 3600.0));
  EXPECT_EQ(static_cast<double>(observer.metrics().counter("serve.ingest_events").value()), 1.0);
}

TEST(ServeFeed, ConfigValidation) {
  FeedConfig fc;
  fc.machines = 0;
  EXPECT_THROW(AvailabilityFeed feed(fc), ConfigError);
}

}  // namespace
}  // namespace fgcs::serve
