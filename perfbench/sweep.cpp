// The sweep workloads: fleet::run_fleet over the paper's 92-day horizon
// with one worker.
//
//   sweep         2,000 machines spilled to the checkout's filesystem,
//                 checkpointed at the default FGCS_DURABILITY, telemetry on
//                 (metrics_path set): ROADMAP's headline configuration, in
//                 which every write-side layer does its real share.
//   sweep-faults  150 machines in memory under the rate-based crash,
//                 dropout and skew plan of docs/robustness.md, applied to
//                 every machine. A fault plan sends each machine through the
//                 per-sample walk and the event queue, which no other
//                 workload runs; it is ~17x slower per machine-day, hence
//                 the smaller fleet.
//
// An operation is a machine. Its latency runs from the start of its
// simulation to the start of the next machine's in the same shard: its
// walk, telemetry and append. A shard's closing machine has no such
// successor and is left out of the percentiles, so the seal, state blob
// and manifest commit that follow it -- the commit is a rename whose
// latency swings with the disk's load from run to run -- count in
// throughput only, and per layer in the traced run.
//
// The traced run replays run_fleet's shard loop from the same public
// calls with a span around each call into a layer, and holds the replay
// identical to an untraced run_fleet: every file of the spilled sweep,
// every record of the faulted one.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "fgcs/core/testbed.hpp"
#include "fgcs/fault/fault_plan.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/obs/timeseries.hpp"
#include "fgcs/recover/manifest.hpp"
#include "fgcs/recover/shard_state.hpp"
#include "fgcs/trace/format_v2.hpp"
#include "fgcs/util/arena.hpp"
#include "fgcs/workload/load_model.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = fgcs::core;
namespace fleet = fgcs::fleet;
namespace obs = fgcs::obs;
namespace recover = fgcs::recover;
namespace sim = fgcs::sim;
namespace trace = fgcs::trace;
using trace::MachineId;
using trace::UnavailabilityRecord;

constexpr int kDays = 92;
constexpr std::uint32_t kSweepMachines = 2000;
constexpr std::uint32_t kFaultMachines = 150;
// Each set-up ends with an in-memory warm-up sweep, so code, allocator and
// page cache are warm before the first timed machine.
constexpr std::uint32_t kWarmupMachines = 64;
constexpr std::uint32_t kFaultWarmupMachines = 8;
constexpr int kSetups = 5;
constexpr int kInjectorBuilds = 5;
constexpr std::uint32_t kCheckMachines = 8;

// The rate-based specs of the plan documented in docs/robustness.md and
// fault/fault_plan.hpp, with every spec on every machine.
constexpr const char* kFaultPlan =
    "# fgcs-fault-plan v1\n"
    "crash rate_per_day=0.05 mean_minutes=30\n"
    "dropout rate_per_day=0.2 mean_minutes=5\n"
    "skew rate_per_day=0.1 mean_minutes=10 skew_ms=400\n";

fleet::FleetConfig sweep_config(const Context& ctx, bool faulted,
                                std::uint32_t machines,
                                const std::string& spill_dir) {
  fleet::FleetConfig config;
  config.testbed.machines = machines;
  config.testbed.days = kDays;
  config.testbed.seed = ctx.seed;
  if (faulted) {
    config.testbed.faults = fgcs::fault::FaultPlan::parse_string(kFaultPlan);
  }
  config.threads = 1;
  config.spill_dir = spill_dir;
  if (!spill_dir.empty()) config.metrics_path = spill_dir + "/metrics.met1";
  return config;
}

std::vector<std::uint64_t> set_up(const Context& ctx, bool faulted) {
  std::vector<std::uint64_t> took;
  for (int i = 0; i < kSetups; ++i) {
    const std::uint64_t t0 = ticks();
    fs::remove_all(ctx.work_dir);
    fs::create_directories(ctx.work_dir);
    fleet::run_fleet(sweep_config(
        ctx, faulted, faulted ? kFaultWarmupMachines : kWarmupMachines, ""));
    took.push_back(ticks() - t0);
  }
  return took;
}

struct Round {
  std::uint64_t wall = 0;              // ticks
  std::vector<std::uint64_t> latency;  // ticks, one per non-closing machine
};

Round timed_sweep(const fleet::FleetConfig& config,
                  fleet::FleetResult& result) {
  std::vector<std::pair<MachineId, std::uint64_t>> starts;
  starts.reserve(config.testbed.machines);
  fleet::FleetConfig hooked = config;
  hooked.machine_hook = [&starts](MachineId machine, int) {
    starts.emplace_back(machine, ticks());
  };
  const std::uint64_t t0 = ticks();
  result = fleet::run_fleet(hooked);
  Round round;
  round.wall = ticks() - t0;
  const std::uint32_t per_shard = config.effective_shard_machines();
  round.latency.reserve(starts.size());
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    const MachineId next = starts[i + 1].first;
    if (next == starts[i].first + 1 && next % per_shard != 0) {
      round.latency.push_back(starts[i + 1].second - starts[i].second);
    }
  }
  return round;
}

RecordDigest digest_of(const std::vector<UnavailabilityRecord>& records) {
  RecordDigest d;
  for (const auto& r : records) d.add(r);
  return d;
}

/// The records run_fleet kept for `machine`, read back from its shard's
/// segment (or from the in-memory trace).
RecordDigest stored_digest(const fleet::FleetResult& result,
                           MachineId machine) {
  RecordDigest d;
  if (!result.spilled) {
    for (const auto& r : result.trace->records()) {
      if (r.machine == machine) d.add(r);
    }
    return d;
  }
  for (const auto& shard : result.shards) {
    if (machine < shard.first_machine ||
        machine - shard.first_machine >= shard.machine_count) {
      continue;
    }
    const trace::TraceView view(shard.segment_path);
    for (std::size_t b = 0; b < view.block_count(); ++b) {
      if (machine < view.block_min_machine(b) ||
          machine > view.block_max_machine(b)) {
        continue;
      }
      for (std::size_t i = 0; i < view.block_size(b); ++i) {
        const UnavailabilityRecord r = view.record(b, i);
        if (r.machine == machine) d.add(r);
      }
    }
  }
  return d;
}

/// The output check, outside every timed region: on a fixed sample of
/// machines, the record count and digest must match a fresh
/// TestbedRunner::run -- for the faulted sweep run_reference, the
/// per-sample reference walk. Counts quarantined and differing machines
/// as failed operations.
void check_sweep(Result& res, const fleet::FleetResult& result,
                 const fleet::FleetConfig& config, bool faulted) {
  const std::uint32_t machines = config.testbed.machines;
  res.attempted += machines;
  if (!result.quarantined.empty()) {
    res.fail(result.quarantined.size(),
             std::to_string(result.quarantined.size()) +
                 " machine(s) quarantined");
  }
  const core::TestbedRunner runner(config.testbed);
  std::uint64_t bad = 0;
  for (std::uint32_t k = 0; k < kCheckMachines; ++k) {
    const auto m = static_cast<MachineId>(std::uint64_t{k} * (machines - 1) /
                                          (kCheckMachines - 1));
    const RecordDigest expect =
        digest_of(faulted ? runner.run_reference(m) : runner.run(m));
    if (!(stored_digest(result, m) == expect)) ++bad;
  }
  if (bad != 0) {
    res.fail(bad, std::to_string(bad) +
                      " sampled machine(s) differ from TestbedRunner::" +
                      (faulted ? "run_reference" : "run"));
  }
}

Result measure(const Context& ctx, bool faulted) {
  Result res;
  const std::vector<std::uint64_t> setups = set_up(ctx, faulted);
  const std::uint32_t machines = faulted ? kFaultMachines : kSweepMachines;
  const std::string dir = faulted ? std::string() : ctx.work_dir + "/sweep";
  std::vector<Round> rounds;
  std::uint64_t disk_bytes = 0;
  std::uint64_t records = 0;
  double peak_mb = 0.0;
  {
    PeakRss rss;
    const auto t0 = std::chrono::steady_clock::now();
    do {
      // Each round after the first sweeps a fleet of its own seed, so the
      // latency percentiles cover as many distinct machines as fit in the
      // run: the slowest 1% of one 150-machine fleet is two machines.
      fleet::FleetConfig config = sweep_config(ctx, faulted, machines, dir);
      if (!rounds.empty()) {
        config.testbed.seed = mix64(ctx.seed + rounds.size());
      }
      fleet::FleetResult result;
      rounds.push_back(timed_sweep(config, result));
      // Outside the timed sweep: disk usage, the output check, clean-up.
      if (!faulted) disk_bytes += dir_bytes(dir);
      records += result.total_records;
      check_sweep(res, result, config, faulted);
      if (!faulted) fs::remove_all(dir);
    } while (seconds_since(t0) < ctx.seconds);
    peak_mb = rss.peak_mb();
  }

  const double npt = ns_per_tick();
  std::uint64_t wall = 0;
  std::vector<double> latency_us;
  for (const Round& r : rounds) {
    wall += r.wall;
    for (const std::uint64_t t : r.latency) {
      latency_us.push_back(static_cast<double>(t) * npt / 1e3);
    }
  }
  const double wall_s = static_cast<double>(wall) * npt / 1e9;
  const double swept = static_cast<double>(machines) *
                       static_cast<double>(rounds.size());
  const double md = swept * kDays;
  res.metric("setup_s", median(to_seconds(setups, npt)), "s");
  res.metric("throughput_per_s", md / wall_s, "1/s");
  res.metric("ops_per_s", swept / wall_s, "1/s");
  res.metric("latency_p50_us", quantile(latency_us, 0.5), "us");
  res.metric("latency_p99_us", quantile(latency_us, 0.99), "us");
  res.metric("peak_rss_mb", peak_mb, "MB");
  res.detail("machine_days_per_s", md / wall_s, "md/s");
  if (!faulted) {
    res.detail("disk_bytes_per_md", static_cast<double>(disk_bytes) / md,
               "B/md");
  }
  res.detail("records_per_md", static_cast<double>(records) / md, "count");
  res.detail("rounds", static_cast<double>(rounds.size()), "count");
  res.detail("machines_per_round", machines, "count");
  return res;
}

// --- traced replay -----------------------------------------------------------

struct ReplayStats {
  std::uint64_t records = 0;
  std::uint64_t segment_bytes = 0;
  std::uint64_t shards = 0;
  std::uint64_t allocs = 0;              // heap allocations after shard 0
  std::uint64_t alloc_machine_days = 0;  // the machine-days they cover
};

std::string segment_name(std::size_t shard) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04zu.trc2", shard);
  return name;
}

/// run_fleet's checkpoint identity, so the replay's MANIFEST matches.
recover::SweepIdentity identity(const fleet::FleetConfig& config) {
  const core::TestbedConfig& tb = config.testbed;
  recover::SweepIdentity id;
  id.machines = tb.machines;
  id.days = tb.days;
  id.start_dow = static_cast<int>(tb.start_dow);
  id.seed = tb.seed;
  id.shard_machines = config.effective_shard_machines();
  id.fault_plan = tb.faults.str();
  id.metrics = !config.metrics_path.empty();
  id.metrics_resolution_us =
      id.metrics ? config.metrics_resolution.as_micros() : 0;
  id.ram_mb = tb.ram_mb;
  id.kernel_mb = tb.kernel_mb;
  id.th1 = tb.policy.th1;
  id.th2 = tb.policy.th2;
  id.sample_period_us = tb.policy.sample_period.as_micros();
  return id;
}

/// run_fleet's FGCSMET1 segment: fleet totals, then each shard's series
/// under {shard=NNNN} plus the two gauges locating it in the machine range.
void write_metrics(
    const fleet::FleetConfig& config, sim::SimTime start, sim::SimTime end,
    const std::vector<obs::TimeSeriesShard>& shards,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges) {
  obs::MetricsWriterV1 writer(config.metrics_path, start, end,
                              config.metrics_resolution);
  obs::TimeSeriesShard totals(start, end, config.metrics_resolution);
  for (const auto& ts : shards) totals.add(ts);
  totals.write_series(writer, {});
  for (std::size_t s = 0; s < shards.size(); ++s) {
    char label[24];
    std::snprintf(label, sizeof label, "%04zu", s);
    shards[s].write_series(writer, {{"shard", label}});
    const auto first = writer.series_id(
        std::string("fleet.shard_first_machine{shard=") + label + "}",
        obs::SeriesKind::kGauge);
    const auto count = writer.series_id(
        std::string("fleet.shard_machines{shard=") + label + "}",
        obs::SeriesKind::kGauge);
    writer.append(first, start, static_cast<double>(ranges[s].first));
    writer.append(count, start, static_cast<double>(ranges[s].second));
  }
  writer.finish();
}

/// The per-machine calls run_fleet does not make, with every telemetry
/// hook off: the synthesis alone, and (given `bare_scratch`) the whole
/// walk. Their differences with run_into give the per-layer costs that
/// run_into hides.
void extra_calls(Tracer& tr, const core::TestbedRunner& runner,
                 MachineId machine, fgcs::util::Arena& arena,
                 core::MachineScratch* bare_scratch,
                 std::vector<UnavailabilityRecord>& bare_out,
                 obs::Observer* installed) {
  const obs::ShardScope no_counters(nullptr);
  const obs::TimeSeriesScope no_bins(nullptr);
  obs::set_observer(nullptr);
  const core::TestbedConfig& tb = runner.config();
  {
    const SpanScope span(&tr, "workload.synth");
    arena.reset();
    fgcs::workload::ArenaLoadTrace load(&arena);
    fgcs::workload::generate_machine_load_into(
        tb.profile, tb.seed, machine, tb.days,
        static_cast<int>(tb.start_dow), &arena, load);
  }
  if (bare_scratch != nullptr) {
    const SpanScope span(&tr, "core.walk_bare");
    runner.run_into(machine, *bare_scratch, bare_out);
  }
  obs::set_observer(installed);
}

/// run_fleet's shard loop for a spilled, checkpointed, telemetry-on sweep
/// with one worker, rebuilt from the library's public calls with a span
/// around each. (Progress counters and the retry supervisor are left out:
/// no progress sink is set, and nothing fails.)
ReplayStats replay_spilled(const fleet::FleetConfig& config, Tracer& tr) {
  ReplayStats st;
  const SpanScope root(&tr, "bench.replay");
  const core::TestbedConfig& tb = config.testbed;
  std::optional<core::TestbedRunner> runner;
  {
    const SpanScope span(&tr, "core.runner");
    runner.emplace(tb);
  }
  const sim::SimTime start = runner->horizon_start();
  const sim::SimTime end = runner->horizon_end();
  const std::uint32_t per_shard = config.effective_shard_machines();
  const std::size_t shard_count = config.shard_count();
  fs::create_directories(config.spill_dir);

  // run_fleet's local observer: telemetry reaches the bins through it.
  obs::Observer observer;
  const obs::ScopedObserver installed(&observer);
  std::vector<obs::TimeSeriesShard> ts_shards;
  ts_shards.reserve(shard_count);
  for (std::size_t s = 0; s < shard_count; ++s) {
    ts_shards.emplace_back(start, end, config.metrics_resolution);
  }
  recover::CheckpointLog log(config.spill_dir,
                             recover::fingerprint(identity(config)),
                             shard_count);
  std::vector<obs::CounterShard> counters(shard_count);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges(shard_count);

  // The extra calls' buffers live across shards; run_into's are per
  // shard, as in run_fleet, so each shard re-warms them.
  core::MachineScratch bare_scratch;
  fgcs::util::Arena synth_arena;
  std::vector<UnavailabilityRecord> bare;
  std::uint64_t allocs_from = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (s == 1) allocs_from = heap_allocs();
    const SpanScope shard_span(&tr, "fleet.shard");
    const std::uint32_t first = static_cast<std::uint32_t>(s) * per_shard;
    const std::uint32_t count = std::min(per_shard, tb.machines - first);
    ranges[s] = {first, count};
    if (s >= 1) {
      st.alloc_machine_days +=
          std::uint64_t{count} * static_cast<std::uint64_t>(tb.days);
    }
    obs::CounterShard& shard_counters = counters[s];
    std::optional<obs::TimeSeriesShard> ts_local;
    std::uint64_t shard_records = 0;
    std::uint32_t segment_crc = 0;
    std::uint64_t segment_bytes = 0;
    {
      const obs::ShardScope scope(&shard_counters);
      ts_local.emplace(start, end, config.metrics_resolution);
      const obs::TimeSeriesScope ts_scope(&*ts_local);
      std::optional<trace::TraceWriterV2> writer;
      {
        const SpanScope span(&tr, "trace.open");
        writer.emplace(config.spill_dir + "/" + segment_name(s), tb.machines,
                       start, end);
      }
      core::MachineScratch scratch;
      std::vector<UnavailabilityRecord> records;
      for (std::uint32_t i = 0; i < count; ++i) {
        const auto machine = static_cast<MachineId>(first + i);
        {
          const SpanScope span(&tr, "core.run_into");
          runner->run_into(machine, scratch, records);
        }
        shard_records += records.size();
        {
          const SpanScope span(&tr, "trace.append");
          writer->append(records);
        }
        extra_calls(tr, *runner, machine, synth_arena, &bare_scratch, bare,
                    &observer);
      }
      {
        const SpanScope span(&tr, "trace.finish");
        writer->finish();
      }
      segment_crc = writer->content_crc();
      segment_bytes = writer->bytes_written();
    }
    for (std::uint32_t i = 0; i < count; ++i) observer.on_fleet_machine_done();
    observer.on_fleet_shard_done(s, first, count, end);
    ts_shards[s] = std::move(*ts_local);
    shard_counters.detector_samples += ts_shards[s].total_samples();
    st.records += shard_records;
    st.segment_bytes += segment_bytes;
    ++st.shards;

    recover::ShardCheckpoint cp;
    cp.shard = s;
    cp.first_machine = first;
    cp.machine_count = count;
    cp.records = shard_records;
    cp.segment_name = segment_name(s);
    cp.state_name = recover::shard_state_name(s);
    cp.rng_key = recover::shard_rng_key(tb.seed, first);
    cp.segment_crc = segment_crc;
    cp.segment_bytes = segment_bytes;
    {
      const SpanScope span(&tr, "recover.write_shard_state");
      recover::ShardState state;
      state.counters = shard_counters;
      state.records = shard_records;
      ts_shards[s].save_bins(state.ts_bins);
      cp.state_crc = recover::write_shard_state(
          config.spill_dir + "/" + cp.state_name, state);
    }
    {
      const SpanScope span(&tr, "recover.commit");
      log.commit(cp);
    }
  }
  st.allocs = heap_allocs() - allocs_from;
  {
    const SpanScope span(&tr, "recover.sync");
    log.sync();
  }
  {
    const SpanScope span(&tr, "obs.merge");
    for (const auto& c : counters) observer.merge_shard(c);
  }
  {
    const SpanScope span(&tr, "obs.write_metrics");
    write_metrics(config, start, end, ts_shards, ranges);
  }
  return st;
}

/// The same loop for the in-memory faulted sweep.
trace::TraceSet replay_memory(const fleet::FleetConfig& config, Tracer& tr,
                              ReplayStats& st) {
  const SpanScope root(&tr, "bench.replay");
  const core::TestbedConfig& tb = config.testbed;
  std::optional<core::TestbedRunner> runner;
  {
    const SpanScope span(&tr, "fault.runner_ctor");
    runner.emplace(tb);
  }
  const std::uint32_t per_shard = config.effective_shard_machines();
  const std::size_t shard_count = config.shard_count();
  std::vector<std::vector<UnavailabilityRecord>> shard_records(shard_count);
  fgcs::util::Arena synth_arena;
  std::vector<UnavailabilityRecord> unused;
  std::uint64_t allocs_from = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (s == 1) allocs_from = heap_allocs();
    const SpanScope shard_span(&tr, "fleet.shard");
    const std::uint32_t first = static_cast<std::uint32_t>(s) * per_shard;
    const std::uint32_t count = std::min(per_shard, tb.machines - first);
    if (s >= 1) {
      st.alloc_machine_days +=
          std::uint64_t{count} * static_cast<std::uint64_t>(tb.days);
    }
    obs::CounterShard counters;
    const obs::ShardScope scope(&counters);
    std::vector<UnavailabilityRecord> local;
    core::MachineScratch scratch;
    std::vector<UnavailabilityRecord> records;
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto machine = static_cast<MachineId>(first + i);
      {
        const SpanScope span(&tr, "core.run_into");
        runner->run_into(machine, scratch, records);
      }
      local.insert(local.end(), records.begin(), records.end());
      extra_calls(tr, *runner, machine, synth_arena, nullptr, unused, nullptr);
    }
    st.records += local.size();
    shard_records[s] = std::move(local);
    ++st.shards;
  }
  st.allocs = heap_allocs() - allocs_from;
  const SpanScope span(&tr, "fleet.merge");
  trace::TraceSet out(tb.machines, runner->horizon_start(),
                      runner->horizon_end());
  out.reserve(st.records);
  for (auto& recs : shard_records) {
    for (const auto& r : recs) out.add(r);
    recs.clear();
    recs.shrink_to_fit();
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Names of the files whose bytes differ between two directories (or
/// that only one of them holds).
std::vector<std::string> differing_files(const std::string& a,
                                         const std::string& b) {
  std::vector<std::string> names;
  for (const std::string& dir : {a, b}) {
    for (const auto& entry : fs::directory_iterator(dir)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  std::vector<std::string> out;
  for (const std::string& name : names) {
    const fs::path pa = fs::path(a) / name;
    const fs::path pb = fs::path(b) / name;
    if (!fs::exists(pa) || !fs::exists(pb) || read_file(pa) != read_file(pb)) {
      out.push_back(name);
    }
  }
  return out;
}

Result traced_spilled(const Context& ctx) {
  Result res;
  const std::vector<std::uint64_t> setups = set_up(ctx, false);
  const std::string base_dir = ctx.work_dir + "/untraced";
  const std::string replay_dir = ctx.work_dir + "/replay";
  const fleet::FleetConfig base_config =
      sweep_config(ctx, false, kSweepMachines, base_dir);
  const fleet::FleetConfig replay_config =
      sweep_config(ctx, false, kSweepMachines, replay_dir);

  fleet::FleetResult baseline;
  const Round base = timed_sweep(base_config, baseline);
  Tracer tracer(std::size_t{kSweepMachines} * 8 + 1024);
  const ReplayStats st = replay_spilled(replay_config, tracer);

  check_sweep(res, baseline, base_config, false);
  const std::vector<std::string> differ =
      differing_files(base_dir, replay_dir);
  if (!differ.empty()) {
    std::string list;
    for (const std::string& name : differ) list += " " + name;
    res.fail(differ.size(), "traced replay differs from run_fleet in" + list);
  }

  const double npt = ns_per_tick();
  const Totals totals = summarize({&tracer}, npt);
  const double md = static_cast<double>(kSweepMachines) * kDays;
  const auto records = static_cast<double>(st.records);
  const auto shards = static_cast<double>(st.shards);
  const double synth = busy_ns(totals, "workload.synth");
  const double bare = busy_ns(totals, "core.walk_bare");
  const double walk = busy_ns(totals, "core.run_into");
  std::uint64_t state_bytes = 0;
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(replay_dir)) {
    ++files;
    if (entry.path().extension() == ".state") state_bytes += entry.file_size();
  }
  const double traced_wall = busy_ns(totals, "bench.replay") - synth - bare;
  const double untraced_wall = static_cast<double>(base.wall) * npt;

  res.metric("workload.synth_ns_per_md", synth / md, "ns");
  res.metric("core.walk_ns_per_md", (bare - synth) / md, "ns");
  res.metric("core.records_per_md", records / md, "count");
  res.metric("obs.collect_ns_per_md", (walk - bare) / md, "ns");
  res.metric("obs.metrics_write_ms",
             busy_ns(totals, "obs.write_metrics") / 1e6, "ms");
  res.metric("obs.metrics_bytes_per_md",
             static_cast<double>(fs::file_size(replay_config.metrics_path)) /
                 md,
             "B");
  res.metric("trace.append_ns_per_record",
             busy_ns(totals, "trace.append") / records, "ns");
  res.metric("trace.seal_ms_per_shard",
             busy_ns(totals, "trace.finish") / 1e6 / shards, "ms");
  res.metric("trace.bytes_per_record",
             static_cast<double>(st.segment_bytes) / records, "B");
  res.metric("recover.state_write_ms_per_shard",
             busy_ns(totals, "recover.write_shard_state") / 1e6 / shards,
             "ms");
  res.metric("recover.state_bytes_per_md",
             static_cast<double>(state_bytes) / md, "B");
  res.metric("recover.commit_ms_per_shard",
             busy_ns(totals, "recover.commit") / 1e6 / shards, "ms");
  res.metric("recover.sync_ms", busy_ns(totals, "recover.sync") / 1e6, "ms");
  res.metric("util.allocs_per_md",
             static_cast<double>(st.allocs) /
                 static_cast<double>(st.alloc_machine_days),
             "count");
  res.metric("bench.disk_bytes_per_md",
             static_cast<double>(dir_bytes(replay_dir)) / md, "B");
  res.metric("bench.unaccounted_frac", unaccounted_frac(totals), "ratio");
  res.metric("bench.tracing_overhead_frac", traced_wall / untraced_wall - 1.0,
             "ratio");
  res.detail("setup_s", median(to_seconds(setups, npt)), "s");
  res.detail("untraced_wall_s", untraced_wall / 1e9, "s");
  res.detail("traced_wall_s", traced_wall / 1e9, "s");
  res.detail("files_compared", static_cast<double>(files), "count");
  write_spans(ctx.spans_path(), {&tracer}, npt);
  return res;
}

bool same_record(const UnavailabilityRecord& a,
                 const UnavailabilityRecord& b) {
  RecordDigest da;
  RecordDigest db;
  da.add(a);
  db.add(b);
  return da == db;
}

Result traced_memory(const Context& ctx) {
  Result res;
  const std::vector<std::uint64_t> setups = set_up(ctx, true);
  const fleet::FleetConfig config =
      sweep_config(ctx, true, kFaultMachines, "");
  std::vector<std::uint64_t> builds;
  for (int i = 0; i < kInjectorBuilds; ++i) {
    const std::uint64_t t0 = ticks();
    const core::TestbedRunner runner(config.testbed);
    builds.push_back(ticks() - t0);
  }

  fleet::FleetResult baseline;
  const Round base = timed_sweep(config, baseline);
  Tracer tracer(std::size_t{kFaultMachines} * 4 + 1024);
  ReplayStats st;
  const trace::TraceSet replayed = replay_memory(config, tracer, st);

  check_sweep(res, baseline, config, true);
  const auto a = baseline.trace->records();
  const auto b = replayed.records();
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = same_record(a[i], b[i]);
  }
  if (!same) res.fail(1, "traced replay's records differ from run_fleet's");

  const double npt = ns_per_tick();
  const Totals totals = summarize({&tracer}, npt);
  const double md = static_cast<double>(kFaultMachines) * kDays;
  const double synth = busy_ns(totals, "workload.synth");
  const double walk = busy_ns(totals, "core.run_into");
  const double traced_wall = busy_ns(totals, "bench.replay") - synth;
  const double untraced_wall = static_cast<double>(base.wall) * npt;
  std::vector<double> build_ms;
  for (const std::uint64_t t : builds) {
    build_ms.push_back(static_cast<double>(t) * npt / 1e6);
  }
  res.metric("workload.synth_ns_per_md", synth / md, "ns");
  res.metric("core.walk_ns_per_md", (walk - synth) / md, "ns");
  res.metric("core.records_per_md", static_cast<double>(st.records) / md,
             "count");
  res.metric("fault.injector_build_ms", median(build_ms), "ms");
  res.metric("util.allocs_per_md",
             static_cast<double>(st.allocs) /
                 static_cast<double>(st.alloc_machine_days),
             "count");
  res.metric("bench.unaccounted_frac", unaccounted_frac(totals), "ratio");
  res.metric("bench.tracing_overhead_frac", traced_wall / untraced_wall - 1.0,
             "ratio");
  res.detail("setup_s", median(to_seconds(setups, npt)), "s");
  res.detail("untraced_wall_s", untraced_wall / 1e9, "s");
  res.detail("traced_wall_s", traced_wall / 1e9, "s");
  write_spans(ctx.spans_path(), {&tracer}, npt);
  return res;
}

}  // namespace

Result run_sweep(const Context& ctx, bool faulted) {
  if (!ctx.traced) return measure(ctx, faulted);
  return faulted ? traced_memory(ctx) : traced_spilled(ctx);
}

}  // namespace perfbench
