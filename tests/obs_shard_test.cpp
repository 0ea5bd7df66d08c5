// Thread-local counter shards and the derived histogram count.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "fgcs/obs/observer.hpp"

namespace fgcs::obs {
namespace {

TEST(ObsShard, HooksBumpTheInstalledShardInsteadOfTheRegistry) {
  Observer observer;
  ScopedObserver guard(&observer);

  CounterShard shard;
  {
    ShardScope scope(&shard);
    ASSERT_EQ(current_shard(), &shard);
    sim_batch({.executed = 2, .max_depth = 10.0, .scheduled = 2, .spilled = 1});
    detector_samples(sim::SimTime::epoch(), {}, 1);
    scheduler_ticks(true, 3, 17);
    emit(FlightEventKind::kFaultInjected, sim::SimTime::epoch(), 1, 0,
         sim::SimDuration::minutes(5));
    emit(FlightEventKind::kStateTransition, sim::SimTime::epoch(), 1, 3);
  }
  EXPECT_EQ(current_shard(), nullptr);

  // Everything landed on the shard...
  EXPECT_EQ(shard.sim_events_executed, 2u);
  EXPECT_EQ(shard.sim_events_scheduled, 2u);
  EXPECT_EQ(shard.sim_callbacks_spilled, 1u);
  EXPECT_EQ(shard.detector_samples, 1u);
  EXPECT_EQ(shard.os_ticks, 1u);
  EXPECT_EQ(shard.os_context_switches, 1u);
  EXPECT_EQ(shard.os_ticks_fast_forwarded, 17u);
  EXPECT_EQ(shard.fault_injected[1], 1u);
  EXPECT_EQ(shard.detector_transitions[0][2], 1u);
  EXPECT_DOUBLE_EQ(shard.sim_max_queue_depth, 10.0);
  EXPECT_DOUBLE_EQ(shard.os_max_runnable, 3.0);

  // ...and nothing on the registry until the merge.
  EXPECT_EQ(observer.metrics().counter("sim.events_executed").value(), 0u);
  EXPECT_EQ(observer.metrics().counter("detector.samples").value(), 0u);

  observer.merge_shard(shard);
  EXPECT_EQ(observer.metrics().counter("sim.events_executed").value(), 2u);
  EXPECT_EQ(observer.metrics().counter("sim.callbacks_spilled").value(), 1u);
  EXPECT_EQ(observer.metrics().counter("detector.samples").value(), 1u);
  EXPECT_EQ(observer.metrics().counter("os.scheduler_ticks").value(), 1u);
  EXPECT_EQ(observer.metrics().counter("os.ticks_fast_forwarded").value(),
            17u);
  EXPECT_DOUBLE_EQ(observer.metrics().gauge("sim.max_queue_depth").value(),
                   10.0);
}

TEST(ObsShard, MergeAccumulatesAcrossShardsAndRaisesGauges) {
  Observer observer;
  CounterShard a;
  a.sim_events_executed = 5;
  a.sim_max_queue_depth = 12.0;
  CounterShard b;
  b.sim_events_executed = 7;
  b.sim_max_queue_depth = 8.0;

  observer.merge_shard(a);
  observer.merge_shard(b);
  EXPECT_EQ(observer.metrics().counter("sim.events_executed").value(), 12u);
  // Max gauge keeps the larger shard's peak, not the last merged one.
  EXPECT_DOUBLE_EQ(observer.metrics().gauge("sim.max_queue_depth").value(),
                   12.0);
}

TEST(ObsShard, ScopesNestAndRestore) {
  CounterShard outer;
  CounterShard inner;
  {
    ShardScope a(&outer);
    EXPECT_EQ(current_shard(), &outer);
    {
      ShardScope b(&inner);
      EXPECT_EQ(current_shard(), &inner);
    }
    EXPECT_EQ(current_shard(), &outer);
  }
  EXPECT_EQ(current_shard(), nullptr);
}

TEST(ObsShard, HooksAreSafeWithShardButNoObserver) {
  // Shard installed, no global observer: the hooks still fold into the
  // shard — a sweep worker needs no Observer to collect its counters.
  ASSERT_EQ(observer(), nullptr);
  CounterShard shard;
  ShardScope scope(&shard);
  sim_batch({.executed = 1});
  emit(FlightEventKind::kEpisodeOpened, sim::SimTime::epoch(), 3);
  EXPECT_EQ(shard.sim_events_executed, 1u);
  EXPECT_EQ(shard.detector_episodes_opened, 1u);
}

TEST(HistogramDerivedCount, CountIsTheSumOfTheBuckets) {
  Histogram h({1.0, 10.0, 100.0});
  EXPECT_EQ(h.count(), 0u);
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);  // overflow bucket
  h.observe(5.0);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 560.5);
  EXPECT_DOUBLE_EQ(h.mean(), 560.5 / 5.0);

  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(ObsShard, ConcurrentMergesFromWorkerThreadsAreExact) {
  // The fleet merges one shard per worker as shards complete, so merges
  // race with each other; totals must still be exact and max-gauges must
  // keep the global peak. Runs under TSan via check_build.sh --tsan.
  Observer observer;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kEventsPerShard = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&observer, t] {
      CounterShard shard;
      shard.sim_events_executed = kEventsPerShard;
      shard.detector_samples = kEventsPerShard / 2;
      shard.sim_max_queue_depth = static_cast<double>(t + 1);
      observer.merge_shard(shard);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(observer.metrics().counter("sim.events_executed").value(),
            kThreads * kEventsPerShard);
  EXPECT_EQ(observer.metrics().counter("detector.samples").value(),
            kThreads * kEventsPerShard / 2);
  EXPECT_DOUBLE_EQ(observer.metrics().gauge("sim.max_queue_depth").value(),
                   static_cast<double>(kThreads));
}

}  // namespace
}  // namespace fgcs::obs
