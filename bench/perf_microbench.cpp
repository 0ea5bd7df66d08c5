// Library micro-benchmarks (google-benchmark): the hot paths of the
// simulation and analysis pipeline.
//
// Beyond the google-benchmark suite:
//   * `--obs-baseline[=path]` measures event-queue throughput with the
//     observability layer disabled vs enabled, plus the fleet sweep with
//     and without the telemetry pipeline (per-shard time series +
//     FGCSMET1 segment write), and writes the comparison to a JSON file
//     (default BENCH_obs.json) — the overhead numbers quoted in
//     docs/observability.md and gated by scripts/check_build.sh --bench.
//   * `--simcore[=path]` runs the tracked sim-core suite (event-queue
//     throughput, single-machine sim-seconds/sec with fast-forward on and
//     off, full 20-machine/92-day testbed wall time) and writes
//     BENCH_simcore.json — the numbers quoted in docs/performance.md and
//     regression-checked by scripts/run_bench.sh.
//   * `--fleet[=path]` runs the tracked fleet-scale suite (2,000 machines,
//     sharded sweep engine): a threads sweep at one simulated week, an
//     in-memory vs spill peak-RSS comparison, and the full 92-day sweep.
//     Each configuration runs in a forked child so wait4()'s ru_maxrss
//     reports that run's peak RSS alone. Writes BENCH_fleet.json.
//   * `--serve[=path]` runs the tracked serving-layer suite: a 2,000-
//     machine/28-day fleet ingested live into an AvailabilityFeed, then
//     one million point queries (hot-machine zipf mix) against the
//     published snapshot — ingest events/sec, queries/sec, and p50/p99
//     per-query latency. Writes BENCH_serve.json, gated by
//     scripts/run_bench.sh and scripts/check_build.sh --bench.
//   * `--query[=path]` runs the tracked streaming-analytics suite: spill
//     a 1,000,000-machine day with the fleet engine, then run the full
//     analyzer + training-scan aggregations over the segments via
//     fgcs::query — full-scan throughput and peak RSS (forked-child
//     ru_maxrss; must stay O(shard), not O(fleet)) plus a selective
//     predicate demonstrating zone-map block pushdown. Writes
//     BENCH_query.json, gated by scripts/run_bench.sh.
//   * `--all` runs all tracked suites.
#include <benchmark/benchmark.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/ishare/system.hpp"
#include "fgcs/monitor/detector.hpp"
#include "fgcs/os/machine.hpp"
#include "fgcs/predict/history_window.hpp"
#include "fgcs/query/engine.hpp"
#include "fgcs/recover/manifest.hpp"
#include "fgcs/serve/load.hpp"
#include "fgcs/recover/shard_state.hpp"
#include "fgcs/sim/simulation.hpp"
#include "fgcs/stats/ecdf.hpp"
#include "fgcs/trace/io.hpp"
#include "fgcs/util/parallel.hpp"
#include "fgcs/workload/load_model.hpp"
#include "fgcs/workload/synthetic.hpp"

using namespace fgcs;

// --- global allocation counting ------------------------------------------
//
// The bench binary replaces global operator new/delete with counting
// versions so the fleet suite can *prove* the columnar engine's
// zero-allocation steady state (steady_state_allocs_per_machine_day in
// BENCH_fleet.json, asserted == 0 by scripts/run_bench.sh). The hooks are
// process-wide but cost one relaxed fetch_add per allocation — noise for
// every other measurement here.

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::size_t align) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align < sizeof(void*)) align = sizeof(void*);
  if (posix_memalign(&p, align, size ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_alloc_aligned(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

std::uint64_t heap_alloc_count() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation simulation;
    for (int i = 0; i < 1000; ++i) {
      simulation.after(sim::SimDuration::millis(i % 97), [] {});
    }
    simulation.run_all();
    benchmark::DoNotOptimize(simulation.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The same workload with an Observer installed: each run_all flushes one
// obs::sim_batch into its registry (the event loop itself does no
// telemetry work).
void BM_EventQueueScheduleRunObserved(benchmark::State& state) {
  obs::Observer observer;
  obs::ScopedObserver guard(&observer);
  for (auto _ : state) {
    sim::Simulation simulation;
    for (int i = 0; i < 1000; ++i) {
      simulation.after(sim::SimDuration::millis(i % 97), [] {});
    }
    simulation.run_all();
    benchmark::DoNotOptimize(simulation.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRunObserved);

void BM_MachineTick(benchmark::State& state) {
  const auto procs = state.range(0);
  os::Machine machine(os::SchedulerParams::linux_2_4(),
                      os::MemoryParams::linux_1gb(), 42);
  util::RngStream rng(7);
  for (std::int64_t i = 0; i < procs; ++i) {
    machine.spawn(workload::synthetic_host(0.3 + 0.05 * (i % 5)));
  }
  machine.spawn(workload::synthetic_guest(19));
  for (auto _ : state) {
    machine.run_for(sim::SimDuration::seconds(1));  // 100 ticks
    benchmark::DoNotOptimize(machine.totals().total().as_micros());
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_MachineTick)->Arg(2)->Arg(5)->Arg(10);

void BM_DetectorObserve(benchmark::State& state) {
  monitor::UnavailabilityDetector detector{
      monitor::ThresholdPolicy::linux_testbed()};
  util::RngStream rng(11);
  sim::SimTime t = sim::SimTime::epoch();
  for (auto _ : state) {
    t += sim::SimDuration::seconds(15);
    monitor::HostSample s;
    s.time = t;
    s.host_cpu = rng.uniform();
    s.free_mem_mb = 300.0 + 600.0 * rng.uniform();
    s.service_alive = true;
    benchmark::DoNotOptimize(detector.observe(s));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorObserve);

void BM_GenerateMachineLoadDay(benchmark::State& state) {
  const auto profile = workload::LabProfile::purdue_lab();
  std::uint32_t machine = 0;
  for (auto _ : state) {
    auto trace = workload::generate_machine_load(profile, 99, machine++, 7);
    benchmark::DoNotOptimize(trace.load.points().size());
  }
  state.SetItemsProcessed(state.iterations() * 7);  // machine-days
}
BENCHMARK(BM_GenerateMachineLoadDay);

void BM_TestbedMachineWeek(benchmark::State& state) {
  core::TestbedConfig config;
  config.days = 7;
  config.machines = 1;
  for (auto _ : state) {
    auto records = core::run_testbed_machine(config, 0);
    benchmark::DoNotOptimize(records.size());
  }
  state.SetItemsProcessed(state.iterations() * 7);
}
BENCHMARK(BM_TestbedMachineWeek);

void BM_EcdfEval(benchmark::State& state) {
  util::RngStream rng(3);
  std::vector<double> xs(10000);
  for (auto& x : xs) x = rng.uniform(0.0, 12.0);
  stats::Ecdf ecdf{xs};
  double q = 0.0;
  for (auto _ : state) {
    q += 0.37;
    if (q > 12.0) q = 0.0;
    benchmark::DoNotOptimize(ecdf(q));
  }
}
BENCHMARK(BM_EcdfEval);

void BM_TraceRoundTripBinary(benchmark::State& state) {
  core::TestbedConfig config;
  config.days = 14;
  config.machines = 4;
  const auto trace = core::run_testbed(config);
  for (auto _ : state) {
    std::stringstream buffer;
    trace::write_trace_binary(trace, buffer);
    auto loaded = trace::read_trace_binary(buffer);
    benchmark::DoNotOptimize(loaded.size());
  }
  state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_TraceRoundTripBinary);

void BM_HistoryWindowPredict(benchmark::State& state) {
  core::TestbedConfig config;
  config.days = 35;
  config.machines = 4;
  const auto trace = core::run_testbed(config);
  const trace::TraceIndex index(trace);
  const trace::TraceCalendar calendar;
  predict::HistoryWindowPredictor predictor;
  predictor.attach(index, calendar);
  sim::SimTime t = trace.horizon_start() + sim::SimDuration::days(30);
  for (auto _ : state) {
    t += sim::SimDuration::minutes(30);
    if (t + sim::SimDuration::hours(2) >= trace.horizon_end()) {
      t = trace.horizon_start() + sim::SimDuration::days(30);
    }
    predict::PredictionQuery q{0, t, sim::SimDuration::hours(2)};
    benchmark::DoNotOptimize(predictor.predict_availability(q));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryWindowPredict);

void BM_IshareClusterHour(benchmark::State& state) {
  for (auto _ : state) {
    ishare::FgcsSystem system;
    for (int n = 0; n < 4; ++n) {
      ishare::NodeConfig cfg;
      cfg.host_processes = {workload::synthetic_host(0.2 + 0.15 * n)};
      system.add_node(cfg);
    }
    ishare::GuestJob job;
    job.work = sim::SimDuration::minutes(20);
    for (int i = 0; i < 6; ++i) system.submit(job);
    system.run_for(sim::SimDuration::hours(1));
    benchmark::DoNotOptimize(system.stats().completed);
  }
  state.SetItemsProcessed(state.iterations() * 4);  // node-hours
}
BENCHMARK(BM_IshareClusterHour);

// The shape obs::Histogram::observe() had before the count was derived
// from the buckets: a third shared atomic RMW per observation. Kept here
// (and only here) so the contention benchmark below can show what the
// dropped RMW buys.
class ThreeRmwHistogram {
 public:
  explicit ThreeRmwHistogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)),
        buckets_(std::make_unique<std::atomic<std::uint64_t>[]>(
            bounds_.size() + 1)) {}

  void observe(double v) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    buckets_[static_cast<std::size_t>(it - bounds_.begin())].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    double cur = sum_.load(std::memory_order_relaxed);
    while (!sum_.compare_exchange_weak(cur, cur + v,
                                       std::memory_order_relaxed)) {
    }
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

// Many threads observing into one shared series — the profiling-scope
// pattern under a parallel sweep. Compare against the Legacy variant to
// see the cost of the third RMW under contention.
void BM_HistogramObserve(benchmark::State& state) {
  static obs::Histogram hist(obs::Histogram::default_time_bounds());
  double v = 1e-6 * (1 + state.thread_index());
  for (auto _ : state) {
    v *= 1.7;
    if (v > 120.0) v = 1e-6;
    hist.observe(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve)->Threads(1)->Threads(2)->Threads(4);

void BM_HistogramObserveLegacy(benchmark::State& state) {
  static ThreeRmwHistogram hist(obs::Histogram::default_time_bounds());
  double v = 1e-6 * (1 + state.thread_index());
  for (auto _ : state) {
    v *= 1.7;
    if (v > 120.0) v = 1e-6;
    hist.observe(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserveLegacy)->Threads(1)->Threads(2)->Threads(4);

// Schedules and runs 1000-event batches for ~100ms windows and returns
// the best observed throughput (events/sec) over `trials` windows. Using
// the max filters scheduler noise: the interesting quantity is the cost
// the hook *adds*, not the machine's worst-case jitter.
double measure_event_queue_throughput(int trials) {
  constexpr int kEventsPerRep = 1000;
  double best = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t events = 0;
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(100)) {
      sim::Simulation simulation;
      for (int i = 0; i < kEventsPerRep; ++i) {
        simulation.after(sim::SimDuration::millis(i % 97), [] {});
      }
      simulation.run_all();
      events += simulation.events_executed();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    best = std::max(best, static_cast<double>(events) / seconds);
  }
  return best;
}

struct FleetRun {
  bool ok = false;
  double wall_seconds = 0.0;
  std::uint64_t records = 0;
  double peak_rss_mb = 0.0;

  double machine_days_per_sec(std::uint32_t machines, int days) const {
    return static_cast<double>(machines) * days / wall_seconds;
  }
};

// Runs one fleet sweep in a forked child: wait4()'s ru_maxrss then
// reports that configuration's peak RSS alone, uncontaminated by earlier
// runs in the same process (RSS high-water marks never come back down).
// The child reports its in-process wall time and record count through a
// pipe. A non-empty `metrics_path` turns on the full telemetry pipeline
// (per-shard time series + the FGCSMET1 segment). `checkpoint`
// toggles the durable per-shard commit (spill mode's default).
FleetRun measure_fleet(std::uint32_t machines, int days, std::size_t threads,
                       bool spill, const std::string& metrics_path = "",
                       bool checkpoint = true) {
  namespace fs = std::filesystem;
  fs::path dir;
  if (spill) {
    char tmpl[] = "/tmp/fgcs-fleet-bench-XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "fleet bench: mkdtemp failed\n");
      return {};
    }
    dir = made;
  }

  int fds[2];
  if (pipe(fds) != 0) {
    std::fprintf(stderr, "fleet bench: pipe failed\n");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "fleet bench: fork failed\n");
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    int rc = 1;
    try {
      fleet::FleetConfig config;
      config.testbed.machines = machines;
      config.testbed.days = days;
      config.threads = threads;
      if (spill) config.spill_dir = dir.string();
      config.checkpoint = checkpoint;
      config.metrics_path = metrics_path;
      const auto start = std::chrono::steady_clock::now();
      const auto result = fleet::run_fleet(config);
      const double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      const std::uint64_t records = result.total_records;
      if (write(fds[1], &wall, sizeof wall) == sizeof wall &&
          write(fds[1], &records, sizeof records) == sizeof records) {
        rc = 0;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fleet bench child: %s\n", e.what());
    }
    _exit(rc);
  }

  close(fds[1]);
  FleetRun run;
  const bool got = read(fds[0], &run.wall_seconds, sizeof run.wall_seconds) ==
                       sizeof run.wall_seconds &&
                   read(fds[0], &run.records, sizeof run.records) ==
                       sizeof run.records;
  close(fds[0]);

  rusage usage{};
  int status = 0;
  wait4(pid, &status, 0, &usage);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB
  run.ok = got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (spill) fs::remove_all(dir);
  if (!run.ok) std::fprintf(stderr, "fleet bench: child run failed\n");
  return run;
}

int run_obs_baseline(const std::string& path) {
  constexpr int kTrials = 24;
  // Warm-up window so both measurements see a hot cache.
  measure_event_queue_throughput(1);

  // Interleave disabled/enabled windows so slow drift (thermal, a noisy
  // neighbour on a shared host) hits both configurations equally; best-of
  // then compares the two quiet-machine peaks.
  double disabled = 0.0;
  double enabled = 0.0;
  obs::Observer observer;
  for (int trial = 0; trial < kTrials; ++trial) {
    disabled = std::max(disabled, measure_event_queue_throughput(1));
    {
      obs::ScopedObserver guard(&observer);
      enabled = std::max(enabled, measure_event_queue_throughput(1));
    }
  }

  const double overhead_percent = (disabled / enabled - 1.0) * 100.0;

  // Fleet-scale telemetry overhead: the same sharded sweep with and
  // without the metrics pipeline (per-shard time-series collection and
  // the post-merge FGCSMET1 segment write).
  // Forked children keep the runs independent.
  constexpr std::uint32_t kFleetMachines = 256;
  constexpr int kFleetDays = 7;
  // Prefer tmpfs for the metrics segment: the benchmark isolates the
  // cost of *collecting* telemetry, and an ext4 writeback stall on the
  // ~1 MB segment would hit only the enabled runs.
  char shm_tmpl[] = "/dev/shm/fgcs-obs-bench-XXXXXX";
  char tmp_tmpl[] = "/tmp/fgcs-obs-bench-XXXXXX";
  const char* metrics_dir = mkdtemp(shm_tmpl);
  if (metrics_dir == nullptr) metrics_dir = mkdtemp(tmp_tmpl);
  if (metrics_dir == nullptr) {
    std::fprintf(stderr, "obs baseline: mkdtemp failed\n");
    return 1;
  }
  const std::string metrics_path = std::string(metrics_dir) + "/fleet.met1";
  // The recorded overhead is *phase-accounted*: the telemetry phases the
  // sweep adds (shard allocation, one binned on_sample per simulated
  // sample, the FGCSMET1 segment write) are timed directly against the
  // best baseline wall. An end-to-end off/on ratio cannot resolve the
  // signal on a shared host: the paired null experiment (off vs off)
  // reads within ±1%, yet allocating the bins *without* installing
  // telemetry — or installing an observer with every per-sample path
  // compiled out — shifts the walk by 2-5% through heap-layout and
  // code-placement artifacts alone, several times the true cost. The
  // off/on ratio is still printed below as a coarse diagnostic, and the
  // per-hook cost stays guarded by the event-queue gate above.
  constexpr int kFleetTrials = 4;
  std::printf("obs baseline: fleet telemetry overhead, %u machines x %d "
              "days (phase-accounted, %d off/on pairs as diagnostic)...\n",
              kFleetMachines, kFleetDays, kFleetTrials);
  double fleet_disabled = 0.0;  // machine-days/sec, telemetry off
  double fleet_enabled = 0.0;   // machine-days/sec, telemetry on
  double fleet_off_best_wall = 0.0;
  std::vector<double> pair_overhead;
  for (int trial = 0; trial < kFleetTrials; ++trial) {
    const bool off_first = trial % 2 == 0;
    const auto first = measure_fleet(kFleetMachines, kFleetDays, 1, false,
                                     off_first ? "" : metrics_path);
    const auto second = measure_fleet(kFleetMachines, kFleetDays, 1, false,
                                      off_first ? metrics_path : "");
    const FleetRun& off = off_first ? first : second;
    const FleetRun& on = off_first ? second : first;
    if (!off.ok || !on.ok) {
      std::filesystem::remove_all(metrics_dir);
      return 1;
    }
    fleet_disabled = std::max(
        fleet_disabled, off.machine_days_per_sec(kFleetMachines, kFleetDays));
    fleet_enabled = std::max(
        fleet_enabled, on.machine_days_per_sec(kFleetMachines, kFleetDays));
    if (fleet_off_best_wall == 0.0 || off.wall_seconds < fleet_off_best_wall) {
      fleet_off_best_wall = off.wall_seconds;
    }
    pair_overhead.push_back((on.wall_seconds / off.wall_seconds - 1.0) *
                            100.0);
  }
  std::sort(pair_overhead.begin(), pair_overhead.end());
  std::printf("obs baseline:   off/on wall ratio median %+.2f%% "
              "(diagnostic; noise floor exceeds the signal)\n",
              pair_overhead[pair_overhead.size() / 2]);

  // Phase accounting: replicate exactly the telemetry work run_fleet adds
  // for this configuration — the same shard partition, the same
  // per-machine monotone sample stream, the same totals fold and segment
  // write — and take the best of a few repetitions so ambient load
  // cannot inflate the phases.
  const sim::SimTime horizon_start = sim::SimTime::epoch();
  const sim::SimTime horizon_end =
      horizon_start + sim::SimDuration::days(kFleetDays);
  const sim::SimDuration resolution = sim::SimDuration::hours(1);
  const sim::SimDuration sample_period = sim::SimDuration::seconds(15);
  const std::size_t shard_count = 64;  // kMaxShards partition at this scale
  const std::uint32_t per_shard = (kFleetMachines + shard_count - 1) /
                                  static_cast<std::uint32_t>(shard_count);
  const std::uint64_t steps =
      static_cast<std::uint64_t>(kFleetDays) * 86400 / 15;
  double alloc_ms = 0.0, collect_ms = 0.0, write_ms = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<obs::TimeSeriesShard> shards;
    shards.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards.emplace_back(horizon_start, horizon_end, resolution);
    }
    const auto t1 = std::chrono::steady_clock::now();
    for (std::uint32_t m = 0; m < kFleetMachines; ++m) {
      obs::TimeSeriesShard& shard = shards[m / per_shard];
      sim::SimTime at = horizon_start;
      for (std::uint64_t i = 0; i < steps; ++i) {
        at = at + sample_period;
        shard.on_sample(at);
      }
    }
    const auto t2 = std::chrono::steady_clock::now();
    {
      obs::MetricsWriterV1 writer(metrics_path, horizon_start, horizon_end,
                                  resolution);
      obs::TimeSeriesShard totals(horizon_start, horizon_end, resolution);
      for (const auto& shard : shards) totals.add(shard);
      totals.write_series(writer, {});
      char label[16];
      for (std::size_t s = 0; s < shard_count; ++s) {
        std::snprintf(label, sizeof label, "%04zu", s);
        shards[s].write_series(writer, {{"shard", label}});
      }
      writer.finish();
    }
    const auto t3 = std::chrono::steady_clock::now();
    const auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    if (rep == 0 || ms(t0, t1) < alloc_ms) alloc_ms = ms(t0, t1);
    if (rep == 0 || ms(t1, t2) < collect_ms) collect_ms = ms(t1, t2);
    if (rep == 0 || ms(t2, t3) < write_ms) write_ms = ms(t2, t3);
  }
  std::filesystem::remove_all(metrics_dir);
  const double telemetry_ms = alloc_ms + collect_ms + write_ms;
  const double fleet_overhead_percent =
      telemetry_ms / (fleet_off_best_wall * 1000.0) * 100.0;
  std::printf("obs baseline:   phases: alloc %.2f ms + collect %.2f ms "
              "(%llu samples) + write %.2f ms = %.2f ms on %.0f ms baseline\n",
              alloc_ms, collect_ms,
              static_cast<unsigned long long>(
                  static_cast<std::uint64_t>(kFleetMachines) * steps),
              write_ms, telemetry_ms, fleet_off_best_wall * 1000.0);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buffer[1024];
  std::snprintf(buffer, sizeof buffer,
                "{\n"
                "  \"benchmark\": \"event_queue_schedule_run\",\n"
                "  \"events_per_batch\": 1000,\n"
                "  \"trials\": %d,\n"
                "  \"observer_disabled_events_per_sec\": %.0f,\n"
                "  \"observer_enabled_events_per_sec\": %.0f,\n"
                "  \"overhead_percent\": %.2f,\n"
                "  \"fleet_telemetry_machines\": %u,\n"
                "  \"fleet_telemetry_days\": %d,\n"
                "  \"fleet_telemetry_disabled_md_per_sec\": %.0f,\n"
                "  \"fleet_telemetry_enabled_md_per_sec\": %.0f,\n"
                "  \"fleet_telemetry_alloc_ms\": %.2f,\n"
                "  \"fleet_telemetry_collect_ms\": %.2f,\n"
                "  \"fleet_telemetry_write_ms\": %.2f,\n"
                "  \"fleet_telemetry_overhead_percent\": %.2f\n"
                "}\n",
                kTrials, disabled, enabled, overhead_percent, kFleetMachines,
                kFleetDays, fleet_disabled, fleet_enabled, alloc_ms,
                collect_ms, write_ms, fleet_overhead_percent);
  out << buffer;
  std::printf("obs baseline: disabled %.2fM ev/s, enabled %.2fM ev/s, "
              "overhead %.2f%% -> %s\n",
              disabled / 1e6, enabled / 1e6, overhead_percent, path.c_str());
  std::printf("obs baseline: fleet telemetry off %.0f md/s, on %.0f md/s, "
              "phase-accounted overhead %.2f%%\n",
              fleet_disabled, fleet_enabled, fleet_overhead_percent);
  return 0;
}

// Sim-seconds simulated per wall-clock second for one contended machine
// (duty-cycle host + nice-19 guest), best of `trials`.
double measure_machine_sim_rate(bool fast_forward, int trials) {
  constexpr double kSimSeconds = 3600.0;  // one simulated hour per trial
  double best = 0.0;
  for (int trial = 0; trial < trials; ++trial) {
    os::SchedulerParams params = os::SchedulerParams::linux_2_4();
    params.fast_forward = fast_forward;
    os::Machine machine(params, os::MemoryParams::linux_1gb(), 42);
    machine.spawn(workload::synthetic_host(0.5));
    machine.spawn(workload::synthetic_guest(19));
    const auto start = std::chrono::steady_clock::now();
    machine.run_for(sim::SimDuration::seconds(static_cast<int>(kSimSeconds)));
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    benchmark::DoNotOptimize(machine.totals().total().as_micros());
    best = std::max(best, kSimSeconds / wall);
  }
  return best;
}

int run_simcore_suite(const std::string& path) {
  // PR-1's committed observer-disabled event-queue throughput
  // (BENCH_obs.json at commit b814219) — the reference this PR's queue
  // rewrite is measured against.
  constexpr double kPr1EventsPerSec = 6267481.0;

  std::printf("simcore: measuring single-machine sim rate...\n");
  const double machine_ff = measure_machine_sim_rate(true, 3);
  const double machine_forced = measure_machine_sim_rate(false, 3);

  std::printf("simcore: running the full testbed (20 machines, 92 days)...\n");
  core::TestbedConfig config;  // paper-scale defaults
  const auto start = std::chrono::steady_clock::now();
  const auto trace = core::run_testbed(config);
  const double testbed_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const double machine_days =
      static_cast<double>(config.machines) * config.days;

  // Queue throughput is measured *after* the sustained phases above so
  // the CPU clock has ramped; PR-1's reference number was likewise taken
  // late in a warm process (after 24 interleaved obs-baseline windows).
  std::printf("simcore: measuring event-queue throughput...\n");
  measure_event_queue_throughput(1);  // warm-up
  const double events_per_sec = measure_event_queue_throughput(24);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buffer[1024];
  std::snprintf(
      buffer, sizeof buffer,
      "{\n"
      "  \"suite\": \"simcore\",\n"
      "  \"event_queue_events_per_sec\": %.0f,\n"
      "  \"pr1_baseline_events_per_sec\": %.0f,\n"
      "  \"speedup_vs_pr1\": %.2f,\n"
      "  \"machine_sim_seconds_per_sec_fast_forward\": %.0f,\n"
      "  \"machine_sim_seconds_per_sec_forced_tick\": %.0f,\n"
      "  \"fast_forward_speedup\": %.2f,\n"
      "  \"testbed_machines\": %u,\n"
      "  \"testbed_days\": %d,\n"
      "  \"testbed_records\": %zu,\n"
      "  \"testbed_wall_seconds\": %.2f,\n"
      "  \"testbed_machine_days_per_sec\": %.0f,\n"
      "  \"testbed_threads\": %zu\n"
      "}\n",
      events_per_sec, kPr1EventsPerSec, events_per_sec / kPr1EventsPerSec,
      machine_ff, machine_forced, machine_ff / machine_forced,
      config.machines, config.days, trace.size(), testbed_wall,
      machine_days / testbed_wall, util::configured_thread_count());
  out << buffer;
  std::printf(
      "simcore: queue %.2fM ev/s (%.2fx vs PR-1), machine %.0f/%.0f "
      "sim-s/s (ff %.1fx), testbed %.2fs wall (%u machines x %d days, "
      "%zu records) -> %s\n",
      events_per_sec / 1e6, events_per_sec / kPr1EventsPerSec, machine_ff,
      machine_forced, machine_ff / machine_forced, testbed_wall,
      config.machines, config.days, trace.size(), path.c_str());
  return 0;
}

// Steady-state heap-allocation rate of the columnar machine walk: one
// warm-up pass grows the shard arena and record buffer to their high-water
// marks, then an identical counted pass over the same machines must not
// touch the heap at all. Single-threaded and in-process so the counter
// sees exactly the simulation's allocations.
double measure_steady_state_allocs(std::uint32_t machines, int days) {
  core::TestbedConfig config;
  config.machines = machines;
  config.days = days;
  const core::TestbedRunner runner(config);
  core::MachineScratch scratch;
  std::vector<trace::UnavailabilityRecord> records;
  for (std::uint32_t m = 0; m < machines; ++m) {
    runner.run_into(m, scratch, records);  // warm-up: grow arena + buffers
    benchmark::DoNotOptimize(records.size());
  }
  const std::uint64_t before = heap_alloc_count();
  for (std::uint32_t m = 0; m < machines; ++m) {
    runner.run_into(m, scratch, records);
    benchmark::DoNotOptimize(records.size());
  }
  const std::uint64_t after = heap_alloc_count();
  return static_cast<double>(after - before) /
         (static_cast<double>(machines) * days);
}

int run_fleet_suite(const std::string& path) {
  constexpr std::uint32_t kMachines = 2000;
  constexpr int kSweepDays = 7;
  constexpr int kFullDays = 92;

  // Honest thread accounting: hardware_concurrency() is what the machine
  // can actually run in parallel. Sweep points above it would only
  // measure oversubscription scheduling noise, so they are skipped and
  // recorded as such in the JSON.
  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::vector<std::size_t> candidates{1, 2, 4, hw};
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<std::size_t> sweep, skipped;
  for (const auto threads : candidates) {
    (threads <= hw ? sweep : skipped).push_back(threads);
  }
  for (const auto threads : skipped) {
    std::printf("fleet: skipping %zu-thread point (only %zu hardware "
                "thread(s))\n",
                threads, hw);
  }

  constexpr std::uint32_t kAllocMachines = 32;
  std::printf("fleet: counting steady-state heap allocations (%u machines "
              "x %d days, single thread)...\n",
              kAllocMachines, kSweepDays);
  const double allocs_per_md =
      measure_steady_state_allocs(kAllocMachines, kSweepDays);
  std::printf("fleet:   %.2f allocations per machine-day after warm-up\n",
              allocs_per_md);

  std::vector<FleetRun> sweep_runs;
  for (const auto threads : sweep) {
    // The single-thread rate is the regression-gated scalar, so it gets
    // best-of-3 trials; one measurement swings 2x on a noisy shared host.
    const int trials = threads == 1 ? 3 : 1;
    std::printf("fleet: %u machines x %d days, %zu thread(s), spilling "
                "(best of %d)...\n",
                kMachines, kSweepDays, threads, trials);
    FleetRun best{};
    for (int t = 0; t < trials; ++t) {
      const auto run = measure_fleet(kMachines, kSweepDays, threads, true);
      if (!run.ok) return 1;
      std::printf("fleet:   %.2fs wall, %.0f machine-days/s, peak RSS "
                  "%.1f MB\n",
                  run.wall_seconds,
                  run.machine_days_per_sec(kMachines, kSweepDays),
                  run.peak_rss_mb);
      if (t == 0 || run.wall_seconds < best.wall_seconds) best = run;
    }
    sweep_runs.push_back(best);
  }

  std::printf("fleet: %u machines x %d days, 1 thread, in-memory...\n",
              kMachines, kSweepDays);
  const auto inmem = measure_fleet(kMachines, kSweepDays, 1, false);
  if (!inmem.ok) return 1;
  std::printf("fleet:   peak RSS %.1f MB in-memory vs %.1f MB spilled\n",
              inmem.peak_rss_mb, sweep_runs.front().peak_rss_mb);

  // Checkpointing cost: the per-shard commit (state blob + atomic
  // manifest rewrite) plus the sweep-final durable sync, measured by
  // replaying the full sweep's commit sequence against a scratch
  // directory and expressed against the measured full-sweep wall. An
  // end-to-end checkpoint-on/off A/B of two ~6 s sweeps was tried first
  // and cannot resolve the ~tens-of-ms true cost on a shared host whose
  // run-to-run swing is an order of magnitude larger; timing the commit
  // path directly is stable run to run, and a quiet-host CLI A/B agrees
  // with it. Best-of trials, fresh directory per trial.
  const std::uint64_t ckpt_shard_machines =
      std::max<std::uint64_t>(1, (kMachines + 63) / 64);
  const std::uint64_t ckpt_shards =
      (kMachines + ckpt_shard_machines - 1) / ckpt_shard_machines;
  constexpr int kCheckpointTrials = 3;
  std::printf("fleet: checkpoint commit path, %llu shard commits + final "
              "sync (best of %d replays)...\n",
              static_cast<unsigned long long>(ckpt_shards), kCheckpointTrials);
  double ckpt_commit_wall = 0.0;
  for (int trial = 0; trial < kCheckpointTrials; ++trial) {
    char tmpl[] = "/tmp/fgcs-ckpt-bench-XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "checkpoint bench: mkdtemp failed\n");
      return 1;
    }
    const std::string dir = made;
    const auto start = std::chrono::steady_clock::now();
    fgcs::recover::CheckpointLog log(dir, /*fingerprint=*/0x4247435346474353ULL,
                                     ckpt_shards);
    for (std::uint64_t s = 0; s < ckpt_shards; ++s) {
      fgcs::recover::ShardState state;
      state.records = 13507;
      state.counters.sim_events_executed = 1000000 + s;
      state.counters.testbed_machines = ckpt_shard_machines;
      fgcs::recover::ShardCheckpoint cp;
      cp.shard = s;
      cp.first_machine = static_cast<std::uint32_t>(s * ckpt_shard_machines);
      cp.machine_count = static_cast<std::uint32_t>(ckpt_shard_machines);
      cp.records = state.records;
      char seg[32];
      std::snprintf(seg, sizeof seg, "shard-%04llu.trc2",
                    static_cast<unsigned long long>(s));
      cp.segment_name = seg;
      cp.state_name = fgcs::recover::shard_state_name(s);
      cp.segment_crc = 0xDEADBEEF;
      cp.segment_bytes = 43000;
      cp.rng_key = fgcs::recover::shard_rng_key(20050815, cp.first_machine);
      cp.state_crc = fgcs::recover::write_shard_state(
          dir + "/" + cp.state_name, state);
      log.commit(cp);
    }
    log.sync();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    if (ckpt_commit_wall == 0.0 || wall < ckpt_commit_wall) {
      ckpt_commit_wall = wall;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  std::printf("fleet: full sweep, %u machines x %d days, %zu thread(s)...\n",
              kMachines, kFullDays, sweep.back());
  const auto full = measure_fleet(kMachines, kFullDays, sweep.back(), true);
  if (!full.ok) return 1;

  const double ckpt_overhead_pct =
      ckpt_commit_wall / full.wall_seconds * 100.0;
  std::printf("fleet:   commit path %.1f ms -> %.2f%% of the %.2fs full "
              "sweep\n",
              ckpt_commit_wall * 1e3, ckpt_overhead_pct, full.wall_seconds);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buffer[512];
  out << "{\n  \"suite\": \"fleet\",\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"machines\": %u,\n  \"sweep_days\": %d,\n"
                "  \"hardware_threads\": %zu,\n",
                kMachines, kSweepDays, hw);
  out << buffer;
  const double single_rate =
      sweep_runs.front().machine_days_per_sec(kMachines, kSweepDays);
  out << "  \"threads_sweep\": [\n";
  for (std::size_t i = 0; i < sweep_runs.size(); ++i) {
    // Scaling efficiency: throughput per thread relative to the
    // single-thread rate (1.0 = perfect linear scaling).
    const double rate =
        sweep_runs[i].machine_days_per_sec(kMachines, kSweepDays);
    const double efficiency =
        rate / (static_cast<double>(sweep[i]) * single_rate);
    std::snprintf(buffer, sizeof buffer,
                  "    {\"threads\": %zu, \"wall_seconds\": %.2f, "
                  "\"machine_days_per_sec\": %.0f, "
                  "\"scaling_efficiency\": %.3f, \"peak_rss_mb\": %.1f}%s\n",
                  sweep[i], sweep_runs[i].wall_seconds, rate, efficiency,
                  sweep_runs[i].peak_rss_mb,
                  i + 1 == sweep_runs.size() ? "" : ",");
    out << buffer;
  }
  out << "  ],\n  \"threads_skipped_above_hardware\": [";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%s%zu", i == 0 ? "" : ", ",
                  skipped[i]);
    out << buffer;
  }
  out << "],\n";
  if (!skipped.empty()) {
    out << "  \"threads_sweep_note\": \"sweep points above hardware_threads "
           "were skipped: oversubscription measures scheduler noise, not "
           "scaling\",\n";
  }
  std::snprintf(buffer, sizeof buffer,
                "  \"single_thread_machine_days_per_sec\": %.0f,\n"
                "  \"steady_state_allocs_per_machine_day\": %.2f,\n"
                "  \"steady_state_alloc_machines\": %u,\n"
                "  \"inmemory_peak_rss_mb\": %.1f,\n"
                "  \"spill_peak_rss_mb\": %.1f,\n",
                single_rate, allocs_per_md, kAllocMachines, inmem.peak_rss_mb,
                sweep_runs.front().peak_rss_mb);
  out << buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"checkpoint_commit_shards\": %llu,\n"
                "  \"checkpoint_commit_wall_seconds\": %.4f,\n"
                "  \"checkpoint_overhead_percent\": %.2f,\n",
                static_cast<unsigned long long>(ckpt_shards),
                ckpt_commit_wall, ckpt_overhead_pct);
  out << buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"full_days\": %d,\n  \"full_threads\": %zu,\n"
                "  \"full_records\": %llu,\n  \"full_wall_seconds\": %.2f,\n"
                "  \"full_machine_days_per_sec\": %.0f,\n"
                "  \"full_peak_rss_mb\": %.1f\n}\n",
                kFullDays, sweep.back(),
                static_cast<unsigned long long>(full.records),
                full.wall_seconds,
                full.machine_days_per_sec(kMachines, kFullDays),
                full.peak_rss_mb);
  out << buffer;
  std::printf("fleet: full sweep %.2fs wall, %llu records, %.0f "
              "machine-days/s, peak RSS %.1f MB -> %s\n",
              full.wall_seconds,
              static_cast<unsigned long long>(full.records),
              full.machine_days_per_sec(kMachines, kFullDays),
              full.peak_rss_mb, path.c_str());
  return 0;
}

// --- query suite ---------------------------------------------------------

struct QueryRun {
  bool ok = false;
  double wall_seconds = 0.0;
  std::uint64_t records_scanned = 0;
  std::uint64_t records_matched = 0;
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  double availability_sum = 0.0;  // aggregation checksum
  double peak_rss_mb = 0.0;

  double records_per_sec() const {
    return wall_seconds > 0.0
               ? static_cast<double>(records_scanned) / wall_seconds
               : 0.0;
  }
};

// One streaming query over a spill directory, in a forked child so
// wait4()'s ru_maxrss isolates the scan's peak RSS — the number that
// proves the engine stays O(shard + block) instead of materializing the
// fleet. Single worker thread: the bench box's gated configuration.
QueryRun measure_query(const std::string& dir, const std::string& pred,
                       bool pushdown) {
  struct Payload {
    double wall_seconds;
    std::uint64_t records_scanned;
    std::uint64_t records_matched;
    std::uint64_t blocks_total;
    std::uint64_t blocks_scanned;
    std::uint64_t blocks_skipped;
    double availability_sum;
  };

  int fds[2];
  if (pipe(fds) != 0) {
    std::fprintf(stderr, "query bench: pipe failed\n");
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::fprintf(stderr, "query bench: fork failed\n");
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
      options.predicate = query::Predicate::parse(pred);
      options.disable_pruning = !pushdown;
      options.pool = &pool;
      const auto start = std::chrono::steady_clock::now();
      const auto result = segments.run(options);
      Payload p;
      p.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
      p.records_scanned = result.stats.records_scanned;
      p.records_matched = result.stats.records_matched;
      p.blocks_total = result.stats.blocks_total;
      p.blocks_scanned = result.stats.blocks_scanned;
      p.blocks_skipped = result.stats.blocks_skipped;
      p.availability_sum = result.training.availability_sum;
      if (write(fds[1], &p, sizeof p) == sizeof p) rc = 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "query bench child: %s\n", e.what());
    }
    _exit(rc);
  }

  close(fds[1]);
  Payload p{};
  const bool got = read(fds[0], &p, sizeof p) == sizeof p;
  close(fds[0]);

  rusage usage{};
  int status = 0;
  wait4(pid, &status, 0, &usage);
  QueryRun run;
  run.wall_seconds = p.wall_seconds;
  run.records_scanned = p.records_scanned;
  run.records_matched = p.records_matched;
  run.blocks_total = p.blocks_total;
  run.blocks_scanned = p.blocks_scanned;
  run.blocks_skipped = p.blocks_skipped;
  run.availability_sum = p.availability_sum;
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB
  run.ok = got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!run.ok) std::fprintf(stderr, "query bench: child run failed\n");
  return run;
}

// The streaming analytics engine at fleet scale: spill a million-machine
// day with `fleet`, then run the full analyzer + training-scan
// aggregation pass over the segments — once as a full scan (the gated
// single-thread throughput) and once under a selective predicate to
// demonstrate zone-map pushdown skipping blocks. Peak RSS is measured
// per scan in a forked child and must stay bounded by shard + block,
// not fleet size.
int run_query_suite(const std::string& path) {
  constexpr std::uint32_t kMachines = 1'000'000;
  constexpr int kDays = 1;
  constexpr std::uint64_t kShardMachines = 15'625;  // 64 shards

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));

  char tmpl[] = "/tmp/fgcs-query-bench-XXXXXX";
  const char* made = mkdtemp(tmpl);
  if (made == nullptr) {
    std::fprintf(stderr, "query bench: mkdtemp failed\n");
    return 1;
  }
  const std::string dir = made;

  std::printf("query: spilling %u machines x %d day (%llu machines/shard, "
              "%zu thread(s))...\n",
              kMachines, kDays,
              static_cast<unsigned long long>(kShardMachines), hw);
  std::uint64_t total_records = 0;
  double spill_wall = 0.0;
  try {
    fleet::FleetConfig config;
    config.testbed.machines = kMachines;
    config.testbed.days = kDays;
    config.shard_machines = kShardMachines;
    config.threads = hw;
    config.spill_dir = dir;
    const auto start = std::chrono::steady_clock::now();
    const auto result = fleet::run_fleet(config);
    spill_wall = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    total_records = result.total_records;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "query bench: spill failed: %s\n", e.what());
    std::filesystem::remove_all(dir);
    return 1;
  }
  std::printf("query:   %.1fs wall, %llu records\n", spill_wall,
              static_cast<unsigned long long>(total_records));

  // Full scan: every aggregation over every record, single worker. The
  // gated scalar, so best-of-3 against shared-host noise.
  constexpr int kTrials = 3;
  QueryRun full{};
  for (int t = 0; t < kTrials; ++t) {
    std::printf("query: full scan, 1 worker (trial %d/%d)...\n", t + 1,
                kTrials);
    const auto run = measure_query(dir, "all", true);
    if (!run.ok) {
      std::filesystem::remove_all(dir);
      return 1;
    }
    std::printf("query:   %.2fs wall, %.0f records/s, peak RSS %.1f MB\n",
                run.wall_seconds, run.records_per_sec(), run.peak_rss_mb);
    if (t == 0 || run.wall_seconds < full.wall_seconds) full = run;
  }

  // Selective predicate: 1% of the machine space. Zone-map + footer
  // machine-range pushdown must skip >= 90% of the blocks (gated).
  const std::string selective_pred = "machine=[0,10000)";
  std::printf("query: selective scan, pred \"%s\"...\n",
              selective_pred.c_str());
  const auto selective = measure_query(dir, selective_pred, true);
  if (!selective.ok) {
    std::filesystem::remove_all(dir);
    return 1;
  }
  const double skip_fraction =
      selective.blocks_total > 0
          ? static_cast<double>(selective.blocks_skipped) /
                static_cast<double>(selective.blocks_total)
          : 0.0;
  std::printf("query:   %.2fs wall, blocks %llu skipped / %llu total "
              "(%.1f%%), peak RSS %.1f MB\n",
              selective.wall_seconds,
              static_cast<unsigned long long>(selective.blocks_skipped),
              static_cast<unsigned long long>(selective.blocks_total),
              skip_fraction * 100.0, selective.peak_rss_mb);

  std::filesystem::remove_all(dir);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buffer[1024];
  out << "{\n  \"suite\": \"query\",\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"query_machines\": %u,\n"
                "  \"query_days\": %d,\n"
                "  \"query_shard_machines\": %llu,\n"
                "  \"query_total_records\": %llu,\n"
                "  \"query_spill_wall_seconds\": %.1f,\n"
                "  \"hardware_threads\": %zu,\n",
                kMachines, kDays,
                static_cast<unsigned long long>(kShardMachines),
                static_cast<unsigned long long>(total_records), spill_wall,
                hw);
  out << buffer;
  out << "  \"scaling_note\": \"this box exposes " << hw
      << " hardware thread(s), so the segment-parallel scan cannot "
         "demonstrate multi-worker scaling here; only the single-worker "
         "scan throughput and the peak-RSS ceiling are regression-gated "
         "(scripts/run_bench.sh)\",\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"query_full_scan_wall_seconds\": %.2f,\n"
                "  \"query_single_thread_records_per_sec\": %.0f,\n"
                "  \"query_full_scan_blocks_total\": %llu,\n"
                "  \"query_full_scan_blocks_scanned\": %llu,\n"
                "  \"query_full_scan_peak_rss_mb\": %.1f,\n"
                "  \"query_availability_checksum\": %.6f,\n",
                full.wall_seconds, full.records_per_sec(),
                static_cast<unsigned long long>(full.blocks_total),
                static_cast<unsigned long long>(full.blocks_scanned),
                full.peak_rss_mb, full.availability_sum);
  out << buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"query_selective_predicate\": \"%s\",\n"
                "  \"query_selective_wall_seconds\": %.2f,\n"
                "  \"query_selective_blocks_skipped\": %llu,\n"
                "  \"query_selective_blocks_scanned\": %llu,\n"
                "  \"query_selective_blocks_skipped_fraction\": %.4f,\n"
                "  \"query_selective_records_matched\": %llu,\n"
                "  \"query_selective_peak_rss_mb\": %.1f\n}\n",
                selective_pred.c_str(), selective.wall_seconds,
                static_cast<unsigned long long>(selective.blocks_skipped),
                static_cast<unsigned long long>(selective.blocks_scanned),
                skip_fraction,
                static_cast<unsigned long long>(selective.records_matched),
                selective.peak_rss_mb);
  out << buffer;
  std::printf("query: full scan %.0f records/s (peak RSS %.1f MB), "
              "selective skips %.1f%% of blocks -> %s\n",
              full.records_per_sec(), full.peak_rss_mb,
              skip_fraction * 100.0, path.c_str());
  return 0;
}

}  // namespace

// The serving layer end to end at benchmark scale: a 2,000-machine fleet
// ingested record-by-record through AvailabilityFeed::ingest (the same
// incremental fold the observer event seam drives), then one million
// zipf-mixed point queries against the published snapshot. Latency is
// measured per query over a 200k sample; throughput over the full load.
int run_serve_suite(const std::string& path) {
  constexpr std::uint32_t kMachines = 2000;
  constexpr int kDays = 28;
  constexpr std::uint64_t kQueries = 1'000'000;
  constexpr std::uint64_t kLatencySample = 200'000;

  serve::FeedConfig fc;
  fc.machines = kMachines;
  fc.horizon_start = sim::SimTime::epoch();
  fc.publish_every = 1024;
  serve::AvailabilityFeed feed(fc);

  std::printf("serve: ingesting %u machines x %d days...\n", kMachines,
              kDays);
  core::TestbedConfig config;
  config.machines = kMachines;
  config.days = kDays;
  const core::TestbedRunner runner(config);
  core::MachineScratch scratch;
  std::vector<trace::UnavailabilityRecord> records;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (std::uint32_t m = 0; m < kMachines; ++m) {
    runner.run_into(m, scratch, records);
    for (const auto& r : records) feed.ingest(r);
  }
  feed.publish();
  const double ingest_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_start)
          .count();
  const double ingested = static_cast<double>(feed.events_ingested());

  serve::LoadSpec spec;
  spec.machines = kMachines;
  spec.queries = kQueries;
  spec.mix = serve::MixSpec::parse("zipf:1.1");
  spec.at_hours = 24.0 * kDays + 1.0;  // strictly past every episode
  spec.horizon_hours = 4.0;
  const serve::LoadGenerator gen(spec);
  const serve::QueryEngine engine(feed);

  std::printf("serve: timing %llu sampled queries...\n",
              static_cast<unsigned long long>(kLatencySample));
  std::vector<double> lat_us;
  lat_us.reserve(kLatencySample);
  {
    const auto snap = engine.pin();
    for (std::uint64_t i = 0; i < kLatencySample; ++i) {
      const serve::ServeQuery q = gen.query(i);
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.query(*snap, q).p_available);
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  const double p50 = lat_us[lat_us.size() / 2];
  const double p99 = lat_us[lat_us.size() * 99 / 100];

  std::printf("serve: running the %lluM-query load...\n",
              static_cast<unsigned long long>(kQueries / 1'000'000));
  const auto load_start = std::chrono::steady_clock::now();
  const serve::LoadStats stats = serve::run_load(engine, gen, 0, kQueries);
  const double load_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_start)
          .count();
  const double qps = static_cast<double>(stats.queries) / load_wall;

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  char buffer[1024];
  std::snprintf(
      buffer, sizeof buffer,
      "{\n"
      "  \"suite\": \"serve\",\n"
      "  \"serve_machines\": %u,\n"
      "  \"serve_days\": %d,\n"
      "  \"serve_ingest_events\": %.0f,\n"
      "  \"serve_ingest_events_per_sec\": %.0f,\n"
      "  \"serve_snapshot_swaps\": %llu,\n"
      "  \"serve_mix\": \"%s\",\n"
      "  \"serve_queries\": %llu,\n"
      "  \"serve_queries_per_sec\": %.0f,\n"
      "  \"serve_latency_p50_us\": %.4f,\n"
      "  \"serve_latency_p99_us\": %.4f,\n"
      "  \"serve_prob_checksum\": %.6f\n"
      "}\n",
      kMachines, kDays, ingested, ingested / ingest_wall,
      static_cast<unsigned long long>(feed.snapshots_published()),
      spec.mix.str().c_str(), static_cast<unsigned long long>(stats.queries),
      qps, p50, p99, stats.prob_sum);
  out << buffer;
  std::printf(
      "serve: ingest %.0f ev/s (%.0f episodes, %.2fs), %.2fM q/s, "
      "latency p50 %.3fus p99 %.3fus -> %s\n",
      ingested / ingest_wall, ingested, ingest_wall, qps / 1e6, p50, p99,
      path.c_str());
  return 0;
}

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string simcore_path;
  std::string fleet_path;
  std::string serve_path;
  std::string query_path;
  bool run_baseline = false;
  bool run_simcore = false;
  bool run_fleet = false;
  bool run_serve = false;
  bool run_query = false;
  std::vector<char*> bench_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--obs-baseline") {
      run_baseline = true;
      baseline_path = "BENCH_obs.json";
    } else if (arg.rfind("--obs-baseline=", 0) == 0) {
      run_baseline = true;
      baseline_path = arg.substr(std::string_view("--obs-baseline=").size());
    } else if (arg == "--simcore") {
      run_simcore = true;
      simcore_path = "BENCH_simcore.json";
    } else if (arg.rfind("--simcore=", 0) == 0) {
      run_simcore = true;
      simcore_path = arg.substr(std::string_view("--simcore=").size());
    } else if (arg == "--fleet") {
      run_fleet = true;
      fleet_path = "BENCH_fleet.json";
    } else if (arg.rfind("--fleet=", 0) == 0) {
      run_fleet = true;
      fleet_path = arg.substr(std::string_view("--fleet=").size());
    } else if (arg == "--serve") {
      run_serve = true;
      serve_path = "BENCH_serve.json";
    } else if (arg.rfind("--serve=", 0) == 0) {
      run_serve = true;
      serve_path = arg.substr(std::string_view("--serve=").size());
    } else if (arg == "--query") {
      run_query = true;
      query_path = "BENCH_query.json";
    } else if (arg.rfind("--query=", 0) == 0) {
      run_query = true;
      query_path = arg.substr(std::string_view("--query=").size());
    } else if (arg == "--all") {
      run_baseline = true;
      run_simcore = true;
      run_fleet = true;
      run_serve = true;
      run_query = true;
      if (baseline_path.empty()) baseline_path = "BENCH_obs.json";
      if (simcore_path.empty()) simcore_path = "BENCH_simcore.json";
      if (fleet_path.empty()) fleet_path = "BENCH_fleet.json";
      if (serve_path.empty()) serve_path = "BENCH_serve.json";
      if (query_path.empty()) query_path = "BENCH_query.json";
    } else {
      bench_args.push_back(argv[i]);
    }
  }
  if (run_baseline || run_simcore || run_fleet || run_serve || run_query) {
    int rc = 0;
    if (run_simcore) rc |= run_simcore_suite(simcore_path);
    if (run_baseline) rc |= run_obs_baseline(baseline_path);
    if (run_fleet) rc |= run_fleet_suite(fleet_path);
    if (run_serve) rc |= run_serve_suite(serve_path);
    if (run_query) rc |= run_query_suite(query_path);
    return rc;
  }

  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
