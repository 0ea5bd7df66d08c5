// The sharded fleet sweep engine: bit-identity with run_testbed, spill
// segments, deterministic partitioning, obs shard merging, and
// telemetry isolation between concurrent sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "fgcs/fleet/fleet.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/trace/format_v2.hpp"
#include "fgcs/trace/index.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::fleet {
namespace {

namespace fs = std::filesystem;

class FleetSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fgcs_fleet_" + std::string(::testing::UnitTest::GetInstance()
                                            ->current_test_info()
                                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

core::TestbedConfig small_testbed() {
  core::TestbedConfig config;
  config.machines = 10;
  config.days = 10;
  config.seed = 20060806;
  return config;
}

void expect_equal_records(const trace::TraceSet& a, const trace::TraceSet& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.machine_count(), b.machine_count());
  const auto ra = a.records();
  const auto rb = b.records();
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].machine, rb[i].machine) << i;
    EXPECT_EQ(ra[i].start, rb[i].start) << i;
    EXPECT_EQ(ra[i].end, rb[i].end) << i;
    EXPECT_EQ(ra[i].cause, rb[i].cause) << i;
    EXPECT_EQ(ra[i].host_cpu, rb[i].host_cpu) << i;
    EXPECT_EQ(ra[i].free_mem_mb, rb[i].free_mem_mb) << i;
  }
}

TEST(FleetConfig, Validation) {
  FleetConfig config;
  config.testbed = small_testbed();
  config.testbed.machines = 0;
  EXPECT_THROW(run_fleet(config), ConfigError);
}

TEST(FleetConfig, ShardPartitionIsCappedAndConfigDriven) {
  FleetConfig config;
  config.testbed = small_testbed();
  config.testbed.machines = 2000;
  // Default: capped shard count, never a function of the thread count.
  const auto auto_size = config.effective_shard_machines();
  EXPECT_GE(auto_size, 2000u / 64u);
  config.threads = 7;
  EXPECT_EQ(config.effective_shard_machines(), auto_size);
  config.shard_machines = 3;
  EXPECT_EQ(config.effective_shard_machines(), 3u);
}

TEST_F(FleetSweep, InMemoryRunIsBitIdenticalToTestbed) {
  const auto reference = core::run_testbed(small_testbed());

  FleetConfig config;
  config.testbed = small_testbed();
  config.shard_machines = 3;  // 4 shards, uneven tail
  config.threads = 2;
  const auto result = run_fleet(config);

  EXPECT_FALSE(result.spilled);
  EXPECT_EQ(result.machines, 10u);
  EXPECT_EQ(result.machine_days(), 100u);
  EXPECT_EQ(result.total_records, reference.size());
  ASSERT_EQ(result.shards.size(), 4u);
  EXPECT_EQ(result.shards.back().machine_count, 1u);

  ASSERT_TRUE(result.trace.has_value());
  expect_equal_records(*result.trace, reference);
  // Shard-major merge order is the canonical order: no re-sort happened.
  EXPECT_EQ(result.trace->sort_passes(), 0u);
  expect_equal_records(result.load_trace(), reference);
}

TEST_F(FleetSweep, SpilledRunStreamsValidSegments) {
  const auto reference = core::run_testbed(small_testbed());

  FleetConfig config;
  config.testbed = small_testbed();
  config.shard_machines = 4;  // shards of 4, 4, 2 machines
  config.threads = 2;
  config.spill_dir = dir_.string();
  const auto result = run_fleet(config);

  EXPECT_TRUE(result.spilled);
  EXPECT_FALSE(result.trace.has_value());
  EXPECT_EQ(result.total_records, reference.size());
  ASSERT_EQ(result.shards.size(), 3u);

  // Each segment is a valid v2 file covering exactly its shard's machines.
  std::uint64_t sum = 0;
  for (const auto& shard : result.shards) {
    ASSERT_TRUE(fs::exists(shard.segment_path)) << shard.segment_path;
    const trace::TraceView view(shard.segment_path);
    EXPECT_EQ(view.size(), shard.records);
    view.for_each([&](const trace::UnavailabilityRecord& r) {
      EXPECT_GE(r.machine, shard.first_machine);
      EXPECT_LT(r.machine, shard.first_machine + shard.machine_count);
    });
    sum += shard.records;
  }
  EXPECT_EQ(sum, result.total_records);

  // Merging the segments reproduces the reference bit-for-bit, without a
  // sort pass (segments stream back in canonical order).
  const auto merged = result.load_trace();
  EXPECT_EQ(merged.sort_passes(), 0u);
  expect_equal_records(merged, reference);

  // The analyzer stack can index a segment directly, zero-copy.
  const trace::TraceView view(result.shards.front().segment_path);
  const trace::TraceIndex index(view);
  const trace::TraceIndex whole(reference);
  const auto t0 = reference.horizon_start() + sim::SimDuration::hours(30);
  const auto t1 = t0 + sim::SimDuration::hours(4);
  for (trace::MachineId m = 0; m < result.shards.front().machine_count; ++m) {
    EXPECT_EQ(index.any_overlap(m, t0, t1), whole.any_overlap(m, t0, t1));
    EXPECT_EQ(index.count_starts_in(m, t0, t1),
              whole.count_starts_in(m, t0, t1));
  }
}

TEST_F(FleetSweep, SegmentBytesDoNotDependOnThreadCount) {
  auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };

  FleetConfig config;
  config.testbed = small_testbed();
  config.shard_machines = 3;

  config.spill_dir = (dir_ / "t1").string();
  config.threads = 1;
  const auto one = run_fleet(config);

  config.spill_dir = (dir_ / "t4").string();
  config.threads = 4;
  const auto four = run_fleet(config);

  ASSERT_EQ(one.shards.size(), four.shards.size());
  for (std::size_t s = 0; s < one.shards.size(); ++s) {
    EXPECT_EQ(one.shards[s].first_machine, four.shards[s].first_machine);
    EXPECT_EQ(one.shards[s].records, four.shards[s].records);
    EXPECT_EQ(read_all(one.shards[s].segment_path),
              read_all(four.shards[s].segment_path))
        << "segment " << s;
  }
}

TEST_F(FleetSweep, ShardCountersFoldIntoTheObserver) {
  FleetConfig config;
  config.testbed = small_testbed();
  config.shard_machines = 5;
  config.threads = 2;

  obs::Observer observer;
  {
    obs::ScopedObserver guard(&observer);
    const auto result = run_fleet(config);

    // Per-shard counters captured real work...
    std::uint64_t shard_samples = 0;
    for (const auto& shard : result.shards) {
      EXPECT_GT(shard.counters.detector_samples, 0u);
      EXPECT_GT(shard.counters.detector_episodes_opened, 0u);
      EXPECT_EQ(shard.counters.testbed_machines, shard.machine_count);
      shard_samples += shard.counters.detector_samples;
    }
    // ...and the merged registry totals equal the per-shard sums.
    EXPECT_EQ(observer.metrics().counter("detector.samples").value(),
              shard_samples);
    EXPECT_EQ(observer.metrics().counter("testbed.machines_simulated").value(),
              10u);
  }

  // A plain testbed run on a fresh observer produces the same totals: the
  // shard path loses nothing relative to the atomic path.
  obs::Observer direct;
  {
    obs::ScopedObserver guard(&direct);
    core::run_testbed(small_testbed());
  }
  EXPECT_EQ(direct.metrics().counter("detector.samples").value(),
            observer.metrics().counter("detector.samples").value());
  EXPECT_EQ(direct.metrics().counter("detector.episodes_opened").value(),
            observer.metrics().counter("detector.episodes_opened").value());
  EXPECT_EQ(direct.metrics().counter("sim.events_executed").value(),
            observer.metrics().counter("sim.events_executed").value());
}

// Two telemetry-on sweeps at once: B starts while A runs, and B's second
// machine waits until A has returned. The hooks fold into each worker's
// own scopes with no Observer installed, so B's metrics segment and state
// blobs equal those of a sweep that ran alone.
TEST_F(FleetSweep, OverlappingTelemetrySweepsDoNotInterfere) {
  const auto telemetry_config = [&](const std::string& name) {
    FleetConfig config;
    config.testbed = small_testbed();
    config.testbed.machines = 4;
    config.shard_machines = 2;
    config.threads = 1;
    config.spill_dir = (dir_ / name).string();
    config.metrics_path = (dir_ / (name + ".met1")).string();
    return config;
  };
  run_fleet(telemetry_config("alone"));

  std::latch b_started(1);
  std::latch a_returned(1);
  std::atomic<int> observed{0};
  const auto note_observer = [&] {
    if (obs::observer() != nullptr) ++observed;
  };
  FleetConfig a = telemetry_config("a");
  a.machine_hook = [&](trace::MachineId machine, int) {
    note_observer();
    if (machine == 1) b_started.wait();
  };
  FleetConfig b = telemetry_config("b");
  b.machine_hook = [&](trace::MachineId machine, int) {
    note_observer();
    if (machine == 0) b_started.count_down();
    if (machine == 1) a_returned.wait();
  };
  std::thread sweep_a([&] {
    run_fleet(a);
    a_returned.count_down();
  });
  std::thread sweep_b([&] { run_fleet(b); });
  sweep_a.join();
  sweep_b.join();

  EXPECT_EQ(observed.load(), 0);
  EXPECT_EQ(obs::observer(), nullptr);
  const auto read_all = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(read_all(dir_ / "b.met1"), read_all(dir_ / "alone.met1"));
  for (const char* state : {"shard-0000.state", "shard-0001.state"}) {
    EXPECT_EQ(read_all(dir_ / "b" / state), read_all(dir_ / "alone" / state))
        << state;
  }
}

TEST_F(FleetSweep, SpillDirectoryIsCreated) {
  FleetConfig config;
  config.testbed = small_testbed();
  config.testbed.machines = 2;
  config.testbed.days = 3;
  config.spill_dir = (dir_ / "nested").string();
  const auto result = run_fleet(config);
  EXPECT_TRUE(fs::is_directory(dir_ / "nested"));
  EXPECT_EQ(result.segment_paths().size(), result.shards.size());
}

}  // namespace
}  // namespace fgcs::fleet
