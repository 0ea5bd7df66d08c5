// Hard performance gates, run in tier-1 (`ctest -L bench`). They hold
// properties that do not depend on how fast the host is today; speed
// itself is perfbench's job (BENCHMARK.json).
//
//   * checkpointing: the per-shard commit path (state blob + atomic
//     MANIFEST rewrite for each of the sweep's 63 shards, then the final
//     durable sync), replayed best of 3, costs under 3% of the wall time
//     of a spilled, checkpointed 2000-machine x 92-day one-thread sweep;
//   * streaming query memory: each of three full scans of a
//     1,000,000-machine x 1-day spill peaks at or under 256 MB RSS,
//     measured in a forked child through wait4()'s ru_maxrss;
//   * pushdown: the 1%-of-machines predicate machine=[0,10000) skips at
//     least 0.90 of that spill's blocks.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <type_traits>

#include "fgcs/fleet/fleet.hpp"
#include "fgcs/query/engine.hpp"
#include "fgcs/recover/manifest.hpp"
#include "fgcs/recover/shard_state.hpp"
#include "fgcs/util/parallel.hpp"

namespace fgcs {
namespace {

namespace fs = std::filesystem;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A fresh directory under the system temp dir, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (fs::temp_directory_path() / "fgcs-bench-gate-XXXXXX").string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed for " << tmpl;
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Wall time of the commit sequence a spilled sweep of `shards` shards of
/// `shard_machines` machines performs: one state blob and one MANIFEST
/// rewrite per shard, then the final sync. Timing the commit path
/// directly resolves its tens-of-ms cost, which an end-to-end
/// checkpoint-on/off A/B of two multi-second sweeps cannot on a shared
/// host.
double checkpoint_commit_wall(std::uint64_t shards,
                              std::uint64_t shard_machines) {
  const TempDir dir;
  const auto start = std::chrono::steady_clock::now();
  recover::CheckpointLog log(dir.path(), /*fingerprint=*/0x4247435346474353ULL,
                             shards);
  for (std::uint64_t s = 0; s < shards; ++s) {
    recover::ShardState state;
    state.records = 13507;
    state.counters.sim_events_executed = 1000000 + s;
    state.counters.testbed_machines = shard_machines;
    recover::ShardCheckpoint cp;
    cp.shard = s;
    cp.first_machine = static_cast<std::uint32_t>(s * shard_machines);
    cp.machine_count = static_cast<std::uint32_t>(shard_machines);
    cp.records = state.records;
    char segment[32];
    std::snprintf(segment, sizeof segment, "shard-%04llu.trc2",
                  static_cast<unsigned long long>(s));
    cp.segment_name = segment;
    cp.state_name = recover::shard_state_name(s);
    cp.segment_crc = 0xDEADBEEF;
    cp.segment_bytes = 43000;
    cp.rng_key = recover::shard_rng_key(20050815, cp.first_machine);
    cp.state_crc =
        recover::write_shard_state(dir.path() + "/" + cp.state_name, state);
    log.commit(cp);
  }
  log.sync();
  return seconds_since(start);
}

TEST(BenchGates, CheckpointCommitPathCostsUnderThreePercentOfASweep) {
  constexpr int kTrials = 3;
  const TempDir spill;
  fleet::FleetConfig config;
  config.testbed.machines = 2000;
  config.testbed.days = 92;
  config.threads = 1;
  config.spill_dir = spill.path();
  config.checkpoint = true;
  // The sweep's own partition: 63 shards of 32 machines.
  const std::uint64_t shards = config.shard_count();

  double commit_wall = 0.0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const double wall =
        checkpoint_commit_wall(shards, config.effective_shard_machines());
    if (trial == 0 || wall < commit_wall) commit_wall = wall;
  }

  const auto start = std::chrono::steady_clock::now();
  const auto result = fleet::run_fleet(config);
  const double sweep_wall = seconds_since(start);
  ASSERT_GT(result.total_records, 0u);

  const double overhead_percent = commit_wall / sweep_wall * 100.0;
  std::printf("gate: checkpoint commit path %.1f ms (%llu shards, best of "
              "%d) = %.2f%% of the %.2f s sweep (budget < 3%%)\n",
              commit_wall * 1e3, static_cast<unsigned long long>(shards),
              kTrials, overhead_percent, sweep_wall);
  EXPECT_LT(overhead_percent, 3.0);
}

struct ScanRun {
  bool ok = false;
  double wall_seconds = 0.0;
  query::ScanStats stats;
  double peak_rss_mb = 0.0;
};

/// One single-worker SegmentQuery::run over `dir` in a forked child, so
/// that wait4()'s ru_maxrss reports that scan's peak RSS.
ScanRun scan_in_child(const std::string& dir, const std::string& predicate) {
  struct Payload {
    double wall_seconds;
    query::ScanStats stats;
  };
  static_assert(std::is_trivially_copyable_v<Payload>);  // sent as bytes
  int fds[2];
  if (pipe(fds) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    int rc = 1;
    try {
      const query::SegmentQuery segments(
          query::SegmentQuery::list_segments(dir));
      util::ThreadPool pool(1);
      query::QueryOptions options;
      options.predicate = query::Predicate::parse(predicate);
      options.pool = &pool;
      const auto start = std::chrono::steady_clock::now();
      const auto result = segments.run(options);
      const Payload p{seconds_since(start), result.stats};
      if (write(fds[1], &p, sizeof p) == static_cast<ssize_t>(sizeof p)) {
        rc = 0;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scan child: %s\n", e.what());
    }
    _exit(rc);
  }
  close(fds[1]);
  Payload p{};
  const bool got = read(fds[0], &p, sizeof p) == static_cast<ssize_t>(sizeof p);
  close(fds[0]);
  rusage usage{};
  int status = 0;
  wait4(pid, &status, 0, &usage);
  ScanRun run;
  run.ok = got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  run.wall_seconds = p.wall_seconds;
  run.stats = p.stats;
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB
  return run;
}

TEST(BenchGates, MillionMachineScanStaysUnder256MbAndPrunesMachineRanges) {
  constexpr std::uint32_t kMachines = 1'000'000;
  constexpr std::uint32_t kShardMachines = 15'625;  // 64 shards
  constexpr double kRssCeilingMb = 256.0;
  constexpr double kSkipFloor = 0.90;
  constexpr int kFullScanTrials = 3;

  const TempDir spill;
  fleet::FleetConfig config;
  config.testbed.machines = kMachines;
  config.testbed.days = 1;
  config.shard_machines = kShardMachines;
  config.threads = std::max(1u, std::thread::hardware_concurrency());
  config.spill_dir = spill.path();
  const auto start = std::chrono::steady_clock::now();
  const auto spilled = fleet::run_fleet(config);
  std::printf("spill: %u machines x 1 day, %llu records in %.1f s\n",
              kMachines,
              static_cast<unsigned long long>(spilled.total_records),
              seconds_since(start));
  ASSERT_GT(spilled.total_records, 0u);

  // Every trial must stay under the ceiling: O(shard + block), never
  // O(fleet).
  for (int trial = 0; trial < kFullScanTrials; ++trial) {
    const ScanRun full = scan_in_child(spill.path(), "all");
    ASSERT_TRUE(full.ok) << "full-scan child failed";
    EXPECT_EQ(full.stats.records_scanned, spilled.total_records);
    std::printf("gate: full scan %.2f s, %.0f records/s, peak RSS %.1f MB "
                "(ceiling %.0f MB)\n",
                full.wall_seconds,
                static_cast<double>(full.stats.records_scanned) /
                    full.wall_seconds,
                full.peak_rss_mb, kRssCeilingMb);
    EXPECT_LE(full.peak_rss_mb, kRssCeilingMb);
  }

  const ScanRun selective = scan_in_child(spill.path(), "machine=[0,10000)");
  ASSERT_TRUE(selective.ok) << "selective-scan child failed";
  ASSERT_GT(selective.stats.blocks_total, 0u);
  const double skipped =
      static_cast<double>(selective.stats.blocks_skipped) /
      static_cast<double>(selective.stats.blocks_total);
  std::printf("gate: machine=[0,10000) skips %zu of %zu blocks (%.4f, floor "
              "%.2f)\n",
              selective.stats.blocks_skipped, selective.stats.blocks_total,
              skipped, kSkipFloor);
  EXPECT_GE(skipped, kSkipFloor);
}

}  // namespace
}  // namespace fgcs
