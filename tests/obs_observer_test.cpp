// Observer: pre-registered metric series, install/restore semantics,
// track scoping, profiling scopes, and the allocation guarantees (zero
// allocations when no observer is installed, none added by a sweep's
// telemetry).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>

#include "fgcs/fleet/fleet.hpp"
#include "fgcs/monitor/detector.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/sim/time.hpp"

// TU-local global-allocation counter for the zero-allocation smoke test.
// Overriding operator new affects this whole test binary, which is fine:
// the counter only has to be *accurate*, the other tests ignore it.
namespace {
std::atomic<std::uint64_t> g_allocation_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fgcs::obs {
namespace {

using sim::SimDuration;
using sim::SimTime;

TEST(Observer, PreRegistersHotPathSeries) {
  Observer obs;
  const auto snapshot = obs.metrics().snapshot();

  int transition_series = 0;
  bool saw_events = false, saw_episodes = false, saw_ticks = false;
  for (const auto& sample : snapshot) {
    if (sample.name == "detector.transitions") ++transition_series;
    if (sample.series() == "sim.events_executed") saw_events = true;
    if (sample.series() == "detector.episodes_opened") saw_episodes = true;
    if (sample.series() == "os.scheduler_ticks") saw_ticks = true;
  }
  // All 25 S-state edges exist up front, so a snapshot always has the full
  // family even when an edge never fired.
  EXPECT_EQ(transition_series, kStateCount * kStateCount);
  EXPECT_TRUE(saw_events);
  EXPECT_TRUE(saw_episodes);
  EXPECT_TRUE(saw_ticks);
}

TEST(Observer, InstallAndRestore) {
  EXPECT_EQ(observer(), nullptr);
  Observer outer;
  {
    ScopedObserver outer_guard(&outer);
    EXPECT_EQ(observer(), &outer);
    Observer inner;
    {
      ScopedObserver inner_guard(&inner);
      EXPECT_EQ(observer(), &inner);
    }
    EXPECT_EQ(observer(), &outer);
  }
  EXPECT_EQ(observer(), nullptr);
}

TEST(Observer, TrackScopeNests) {
  EXPECT_EQ(current_track(), 0u);
  {
    TrackScope a(5);
    EXPECT_EQ(current_track(), 5u);
    {
      TrackScope b(7);
      EXPECT_EQ(current_track(), 7u);
    }
    EXPECT_EQ(current_track(), 5u);
  }
  EXPECT_EQ(current_track(), 0u);
}

TEST(Observer, SimHooksUpdateMetrics) {
  Observer obs;
  ScopedObserver guard(&obs);
  sim_batch({.begin = SimTime::epoch(),
             .end = SimTime::epoch() + SimDuration::seconds(10),
             .executed = 2,
             .max_depth = 4.0});
  EXPECT_EQ(obs.metrics().counter("sim.events_executed").value(), 2u);
  EXPECT_DOUBLE_EQ(obs.metrics().gauge("sim.max_queue_depth").value(), 4.0);

  ASSERT_EQ(obs.trace().size(), 1u);
  EXPECT_EQ(obs.trace().events()[0].name, "run_until");
  EXPECT_EQ(obs.trace().events()[0].dur_us, 10'000'000);
}

TEST(Observer, DetectorTransitionHitsTheRightCell) {
  Observer obs;
  ScopedObserver guard(&obs);
  const SimTime at = SimTime::from_seconds(60.0);
  emit(FlightEventKind::kStateTransition, at, 1, 3);
  emit(FlightEventKind::kStateTransition, at, 1, 3);
  emit(FlightEventKind::kStateTransition, at, 3, 1);

  auto& s1_s3 = obs.metrics().counter("detector.transitions",
                                      {{"from", "S1"}, {"to", "S3"}});
  auto& s3_s1 = obs.metrics().counter("detector.transitions",
                                      {{"from", "S3"}, {"to", "S1"}});
  auto& s1_s2 = obs.metrics().counter("detector.transitions",
                                      {{"from", "S1"}, {"to", "S2"}});
  EXPECT_EQ(s1_s3.value(), 2u);
  EXPECT_EQ(s3_s1.value(), 1u);
  EXPECT_EQ(s1_s2.value(), 0u);

  ASSERT_EQ(obs.trace().size(), 3u);
  EXPECT_EQ(obs.trace().events()[0].name, "S1->S3");
  EXPECT_EQ(obs.trace().events()[0].ts_us, 60'000'000);
  EXPECT_EQ(obs.trace().events()[2].name, "S3->S1");

  // Out-of-range states are tolerated (defensive; the detector never
  // produces them) and recorded nowhere.
  emit(FlightEventKind::kStateTransition, at, 0, 9);
  EXPECT_EQ(obs.trace().size(), 3u);
}

TEST(Observer, EpisodeCloseEmitsInstantAndSpan) {
  Observer obs;
  ScopedObserver guard(&obs);
  const SimTime open_at = SimTime::from_seconds(100.0);
  emit({.at = open_at,
        .kind = FlightEventKind::kEpisodeOpened,
        .a = 3,
        .host_cpu = 0.95,
        .free_mem_mb = 800.0});
  emit(FlightEventKind::kEpisodeClosed, open_at + SimDuration::seconds(50), 3,
       0, SimDuration::seconds(50));

  EXPECT_EQ(obs.metrics().counter("detector.episodes_opened").value(), 1u);
  EXPECT_EQ(obs.metrics().counter("detector.episodes_closed").value(), 1u);

  const auto events = obs.trace().events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "episode_open");
  EXPECT_EQ(events[0].args,
            "\"cause\":\"S3\",\"host_cpu\":0.9500,\"free_mem_mb\":800.0");
  EXPECT_EQ(events[1].name, "episode_close");
  // The span covers [open, close] and is named by the causing state.
  EXPECT_EQ(events[2].name, "S3");
  EXPECT_EQ(events[2].phase, TraceSink::Phase::kComplete);
  EXPECT_EQ(events[2].ts_us, 100'000'000);
  EXPECT_EQ(events[2].dur_us, 50'000'000);
}

TEST(Observer, TraceDisabledStillCountsMetrics) {
  Observer::Options options;
  options.enable_trace = false;
  Observer obs(options);
  ScopedObserver guard(&obs);
  emit(FlightEventKind::kStateTransition, SimTime::epoch(), 1, 3);
  emit(FlightEventKind::kEpisodeOpened, SimTime::epoch(), 3);
  EXPECT_EQ(obs.trace().size(), 0u);
  EXPECT_EQ(obs.metrics()
                .counter("detector.transitions", {{"from", "S1"}, {"to", "S3"}})
                .value(),
            1u);
  EXPECT_EQ(obs.metrics().counter("detector.episodes_opened").value(), 1u);
}

TEST(Observer, ScopeMacroFeedsHistogram) {
  Observer obs;
  ScopedObserver guard(&obs);
  {
    FGCS_OBS_SCOPE("test/scope");
  }
  {
    FGCS_OBS_SCOPE("test/scope");
  }
  auto& h = obs.metrics().histogram("scope.seconds", {{"scope", "test/scope"}});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_GE(h.sum(), 0.0);
}

// The headline guarantee: with no observer installed, instrumented hot
// paths (observer() checks, FGCS_OBS_SCOPE, the detector's steady-state
// sample loop) perform zero heap allocations.
TEST(Observer, DisabledObserverAllocatesNothing) {
  ASSERT_EQ(observer(), nullptr);

  monitor::UnavailabilityDetector detector(
      monitor::ThresholdPolicy::linux_testbed());
  // Warm up outside the measured window (first sample flips bookkeeping).
  monitor::HostSample sample;
  sample.time = SimTime::epoch();
  sample.host_cpu = 0.05;
  sample.free_mem_mb = 900.0;
  detector.observe(sample);

  const std::uint64_t before =
      g_allocation_count.load(std::memory_order_relaxed);
  for (int i = 1; i <= 1000; ++i) {
    if (observer() != nullptr) FAIL();
    FGCS_OBS_SCOPE("never/recorded");
    sample.time = SimTime::from_seconds(static_cast<double>(i));
    detector.observe(sample);  // steady S1: no transitions, no episodes
  }
  const std::uint64_t after =
      g_allocation_count.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u);
}

// Heap allocations of one spilled, checkpointed 64-machine x 92-day shard
// between the hooks of its 9th and its last machine: the steady state,
// after the shard's buffers have warmed.
std::uint64_t steady_state_allocations(const std::filesystem::path& dir,
                                       bool telemetry) {
  fleet::FleetConfig config;
  config.testbed.machines = 64;
  config.testbed.days = 92;
  config.shard_machines = 64;
  config.threads = 1;
  config.spill_dir = (dir / (telemetry ? "on" : "off")).string();
  if (telemetry) config.metrics_path = (dir / "fleet.met1").string();
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  config.machine_hook = [&](trace::MachineId machine, int) {
    if (machine == 8) from = g_allocation_count.load();
    if (machine == 63) to = g_allocation_count.load();
  };
  fleet::run_fleet(config);
  return to - from;
}

// Telemetry folds into the worker's scopes, which allocate nothing per
// machine: a telemetry-on sweep makes exactly the allocations of a
// telemetry-off one.
TEST(Observer, TelemetryAddsNoHeapAllocationsToASweep) {
  ASSERT_EQ(observer(), nullptr);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fgcs_obs_allocs_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::uint64_t without = steady_state_allocations(dir, false);
  const std::uint64_t with = steady_state_allocations(dir, true);
  std::filesystem::remove_all(dir);
  EXPECT_EQ(with, without);
}

}  // namespace
}  // namespace fgcs::obs
