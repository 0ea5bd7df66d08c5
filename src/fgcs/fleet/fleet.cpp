#include "fgcs/fleet/fleet.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <utility>

#include "fgcs/obs/timeseries.hpp"
#include "fgcs/recover/manifest.hpp"
#include "fgcs/recover/shard_state.hpp"
#include "fgcs/trace/format_v2.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/parallel.hpp"

namespace fgcs::fleet {

namespace {

/// Partition cap: keeps segment-file count bounded for very large fleets
/// while still giving small fleets one machine per shard (maximum
/// scheduling freedom).
constexpr std::uint32_t kMaxShards = 64;

std::string join_path(const std::string& dir, const std::string& name) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path += '/';
  path += name;
  return path;
}

std::string segment_file_name(std::size_t shard) {
  char name[32];
  std::snprintf(name, sizeof name, "shard-%04zu.trc2", shard);
  return name;
}

void ensure_dir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return;
  throw IoError("cannot create spill directory: " + dir);
}

std::string shard_label(std::size_t shard) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%04zu", shard);
  return buf;
}

/// Everything a machine result depends on, hashed into the checkpoint
/// fingerprint so resume refuses to splice segments from a different
/// sweep.
recover::SweepIdentity sweep_identity(const FleetConfig& config) {
  recover::SweepIdentity id;
  const auto& tb = config.testbed;
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

/// Writes the sweep's FGCSMET1 segment: fleet totals (unlabeled), then
/// each shard's series under {shard=NNNN} plus two meta gauges locating
/// the shard in the machine range. Single-threaded, shard order — the
/// bytes depend only on the config and seed.
void write_metrics_segment(const FleetConfig& config, const FleetResult& result,
                           const std::vector<obs::TimeSeriesShard>& shards) {
  obs::MetricsWriterV1 writer(config.metrics_path, result.horizon_start,
                              result.horizon_end, config.metrics_resolution);
  obs::TimeSeriesShard totals(result.horizon_start, result.horizon_end,
                              config.metrics_resolution);
  for (const auto& ts : shards) totals.add(ts);
  totals.write_series(writer, {});
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string label = shard_label(s);
    shards[s].write_series(writer, {{"shard", label}});
    const auto first = writer.series_id(
        "fleet.shard_first_machine{shard=" + label + "}",
        obs::SeriesKind::kGauge);
    const auto count = writer.series_id(
        "fleet.shard_machines{shard=" + label + "}", obs::SeriesKind::kGauge);
    writer.append(first, result.horizon_start,
                  static_cast<double>(result.shards[s].first_machine));
    writer.append(count, result.horizon_start,
                  static_cast<double>(result.shards[s].machine_count));
  }
  writer.finish();
}

}  // namespace

void FleetConfig::validate() const {
  testbed.validate();
  if (!metrics_path.empty()) {
    fgcs::require(metrics_resolution > sim::SimDuration::zero(),
                  "metrics_resolution must be positive");
  }
  fgcs::require(max_shard_retries >= 1, "max_shard_retries must be >= 1");
  fgcs::require(!resume || !spill_dir.empty(),
                "resume requires a spill_dir (the checkpoint directory)");
}

std::size_t FleetConfig::shard_count() const {
  const std::uint32_t per_shard = effective_shard_machines();
  return (testbed.machines + per_shard - 1) / per_shard;
}

std::uint32_t FleetConfig::effective_shard_machines() const {
  if (shard_machines > 0) return shard_machines;
  // Ceil-divide so shard count never exceeds kMaxShards; small fleets get
  // one machine per shard.
  return std::max<std::uint32_t>(
      1, (testbed.machines + kMaxShards - 1) / kMaxShards);
}

std::vector<std::string> FleetResult::segment_paths() const {
  std::vector<std::string> paths;
  if (!spilled) return paths;
  paths.reserve(shards.size());
  for (const auto& s : shards) paths.push_back(s.segment_path);
  return paths;
}

trace::TraceSet FleetResult::load_trace() const {
  if (!spilled) {
    fgcs::require(trace.has_value(), "FleetResult holds no in-memory trace");
    return *trace;
  }
  trace::TraceSet out(machines, horizon_start, horizon_end);
  out.reserve(total_records);
  for (const auto& shard : shards) {
    const trace::TraceView view(shard.segment_path);
    view.for_each([&](const trace::UnavailabilityRecord& r) { out.add(r); });
  }
  return out;
}

FleetResult run_fleet(const FleetConfig& config) {
  config.validate();
  const core::TestbedRunner runner(config.testbed);
  const bool spill = !config.spill_dir.empty();
  if (spill) ensure_dir(config.spill_dir);

  const std::uint32_t machines = config.testbed.machines;
  const std::uint32_t per_shard = config.effective_shard_machines();
  const std::size_t shard_count = config.shard_count();
  const bool want_metrics = !config.metrics_path.empty();
  const bool checkpointing = spill && config.checkpoint;
  if (config.progress != nullptr) {
    fgcs::require(config.progress->shard_machines_done.size() >= shard_count,
                  "FleetProgress was constructed for fewer shards than the "
                  "sweep produces");
  }

  FleetResult result;
  result.machines = machines;
  result.days = config.testbed.days;
  result.horizon_start = runner.horizon_start();
  result.horizon_end = runner.horizon_end();
  result.spilled = spill;
  result.shards.resize(shard_count);

  // In-memory mode parks each shard's records here until the ordered
  // merge below; spill mode streams them straight to disk instead.
  std::vector<std::vector<trace::UnavailabilityRecord>> shard_records(
      spill ? 0 : shard_count);

  // One time-series shard per fleet shard; the binned counters fold into
  // fleet totals and spill to the segment after the parallel section.
  std::vector<obs::TimeSeriesShard> ts_shards;
  if (want_metrics) {
    ts_shards.reserve(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
      ts_shards.emplace_back(result.horizon_start, result.horizon_end,
                             config.metrics_resolution);
    }
  }

  // --- resume: splice validated checkpoints, serially, before the sweep.
  const std::uint64_t fingerprint =
      (checkpointing || config.resume)
          ? recover::fingerprint(sweep_identity(config))
          : 0;
  std::vector<char> resumed(shard_count, 0);
  std::vector<recover::ShardCheckpoint> preloaded;
  if (config.resume) {
    recover::ResumePlan plan = recover::plan_resume(
        config.spill_dir, fingerprint, shard_count, config.testbed.seed);
    result.resume_dropped = std::move(plan.dropped);
    for (const auto& cp : plan.valid) {
      const std::size_t s = static_cast<std::size_t>(cp.shard);
      const std::uint32_t first = static_cast<std::uint32_t>(s) * per_shard;
      const std::uint32_t count = std::min(per_shard, machines - first);
      // plan_resume validated files against the manifest; the manifest's
      // geometry must also match *this* sweep's partition (it does unless
      // the manifest was hand-edited — the fingerprint pins the inputs).
      if (cp.first_machine != first || cp.machine_count != count ||
          cp.segment_name != segment_file_name(s)) {
        result.resume_dropped.push_back(
            "shard " + std::to_string(s) +
            ": manifest geometry does not match the sweep partition");
        continue;
      }
      recover::ShardState state;
      try {
        state = recover::read_shard_state(
            join_path(config.spill_dir, cp.state_name));
      } catch (const std::exception& e) {
        result.resume_dropped.push_back("shard " + std::to_string(s) + ": " +
                                        e.what());
        continue;
      }
      if (want_metrics && state.ts_bins.empty()) {
        result.resume_dropped.push_back(
            "shard " + std::to_string(s) +
            ": checkpointed without metrics; this sweep collects them");
        continue;
      }
      if (state.records != cp.records) {
        result.resume_dropped.push_back(
            "shard " + std::to_string(s) +
            ": state blob and manifest disagree on record count");
        continue;
      }
      if (want_metrics) {
        try {
          ts_shards[s].load_bins(state.ts_bins.data(), state.ts_bins.size());
        } catch (const std::exception& e) {
          result.resume_dropped.push_back("shard " + std::to_string(s) + ": " +
                                          e.what());
          continue;
        }
      }
      ShardSummary& summary = result.shards[s];
      summary.first_machine = first;
      summary.machine_count = count;
      summary.records = state.records;
      summary.segment_path = join_path(config.spill_dir, cp.segment_name);
      summary.counters = state.counters;
      summary.resumed = true;
      resumed[s] = 1;
      preloaded.push_back(cp);
      ++result.resumed_shards;
    }
  }

  // The durable manifest log; resumed shards are preloaded so the next
  // commit's rewrite preserves them.
  std::unique_ptr<recover::CheckpointLog> log;
  if (checkpointing) {
    log = std::make_unique<recover::CheckpointLog>(config.spill_dir,
                                                   fingerprint, shard_count);
    if (!preloaded.empty()) log->preload(preloaded);
  }

  const auto run_shard = [&](std::size_t s) {
    ShardSummary& summary = result.shards[s];
    if (resumed[s]) {
      // Spliced from the checkpoint: account for it in the live progress
      // counters (a monitor should see the sweep as near-done, not
      // stalled), but fire no per-machine observer hooks — nothing was
      // simulated, and the restored CounterShard already carries the
      // shard's telemetry.
      if (config.progress != nullptr) {
        config.progress->machines_done.fetch_add(summary.machine_count,
                                                 std::memory_order_relaxed);
        config.progress->records.fetch_add(summary.records,
                                           std::memory_order_relaxed);
        config.progress->shard_machines_done[s].fetch_add(
            summary.machine_count, std::memory_order_relaxed);
        config.progress->shards_completed.fetch_add(1,
                                                    std::memory_order_relaxed);
      }
      return;
    }
    summary.first_machine = static_cast<std::uint32_t>(s) * per_shard;
    summary.machine_count =
        std::min(per_shard, machines - summary.first_machine);

    // Supervised attempt loop. Everything a failed attempt touched is
    // attempt-local (counters, time-series bins, the segment file —
    // re-opened with O_TRUNC on retry), so a retry starts from a clean
    // slate and the surviving attempt's output is identical to a
    // never-failed run's. A machine whose exception keeps failing
    // attempts is quarantined once it burns max_shard_retries of them;
    // the attempt cap bounds failures no machine explains (e.g. the
    // segment directory vanishing mid-sweep) — those rethrow.
    std::vector<trace::MachineId> quarantined;
    std::vector<std::pair<trace::MachineId, int>> failures;
    std::uint32_t seg_crc = 0;
    std::uint64_t seg_bytes = 0;
    const long max_attempts =
        static_cast<long>(config.max_shard_retries) * summary.machine_count + 1;
    for (long attempt = 1;; ++attempt) {
      obs::CounterShard counters;
      std::optional<obs::TimeSeriesShard> ts_local;
      std::uint64_t attempt_records = 0;
      std::uint64_t progress_machines = 0;
      std::uint64_t progress_records = 0;
      std::uint32_t machines_done = 0;
      std::optional<trace::MachineId> current;
      std::optional<trace::TraceWriterV2> writer;
      try {
        // All obs hooks on this thread land in the attempt's counters for
        // the duration; one merge at the end touches the shared atomics.
        // The time-series scope routes the sim-time-stamped hooks into
        // the attempt's bins the same way.
        const obs::ShardScope scope(&counters);
        std::optional<obs::TimeSeriesScope> ts_scope;
        if (want_metrics) {
          ts_local.emplace(result.horizon_start, result.horizon_end,
                           config.metrics_resolution);
          ts_scope.emplace(&*ts_local);
        }
        if (spill) {
          summary.segment_path =
              join_path(config.spill_dir, segment_file_name(s));
          writer.emplace(summary.segment_path, machines, result.horizon_start,
                         result.horizon_end);
        }
        std::vector<trace::UnavailabilityRecord> local;
        // Reused across the shard's machines: the arena's chunks and the
        // record buffer's capacity persist, so after the first machine
        // warms them a machine simulation allocates nothing.
        core::MachineScratch scratch;
        std::vector<trace::UnavailabilityRecord> records;
        for (std::uint32_t i = 0; i < summary.machine_count; ++i) {
          const auto machine =
              static_cast<trace::MachineId>(summary.first_machine + i);
          if (std::binary_search(quarantined.begin(), quarantined.end(),
                                 machine)) {
            continue;
          }
          current = machine;
          if (config.machine_hook) {
            config.machine_hook(machine, static_cast<int>(attempt));
          }
          runner.run_into(machine, scratch, records);
          attempt_records += records.size();
          ++machines_done;
          if (config.progress != nullptr) {
            config.progress->machines_done.fetch_add(
                1, std::memory_order_relaxed);
            config.progress->records.fetch_add(records.size(),
                                               std::memory_order_relaxed);
            config.progress->shard_machines_done[s].fetch_add(
                1, std::memory_order_relaxed);
            ++progress_machines;
            progress_records += records.size();
          }
          if (writer) {
            // Finished machine's records leave memory immediately.
            writer->append(records);
          } else {
            local.insert(local.end(), records.begin(), records.end());
          }
        }
        if (writer) {
          writer->finish();
          seg_crc = writer->content_crc();
          seg_bytes = writer->bytes_written();
        } else {
          shard_records[s] = std::move(local);
        }
        // Success: the attempt's state becomes the shard's.
        summary.counters = counters;
        summary.records = attempt_records;
        summary.quarantined = quarantined;
        if (want_metrics) ts_shards[s] = std::move(*ts_local);
      } catch (const std::exception&) {
        // Roll the attempt's contribution back out of the live progress
        // counters — the display stays a count of *kept* work.
        if (config.progress != nullptr) {
          config.progress->machines_done.fetch_sub(progress_machines,
                                                   std::memory_order_relaxed);
          config.progress->records.fetch_sub(progress_records,
                                             std::memory_order_relaxed);
          config.progress->shard_machines_done[s].fetch_sub(
              progress_machines, std::memory_order_relaxed);
        }
        ++summary.retries;
        if (attempt >= max_attempts || !current.has_value()) throw;
        const trace::MachineId failed = *current;
        obs::emit({result.horizon_end, obs::FlightEventKind::kShardRetry,
                   static_cast<std::uint32_t>(s), static_cast<int>(attempt),
                   static_cast<std::int32_t>(failed)});
        auto it =
            std::find_if(failures.begin(), failures.end(),
                         [&](const auto& f) { return f.first == failed; });
        if (it == failures.end()) {
          failures.emplace_back(failed, 1);
          it = std::prev(failures.end());
        } else {
          ++it->second;
        }
        if (it->second >= config.max_shard_retries) {
          quarantined.insert(std::lower_bound(quarantined.begin(),
                                              quarantined.end(), failed),
                             failed);
          obs::emit({result.horizon_end,
                     obs::FlightEventKind::kMachineQuarantined, failed,
                     it->second});
        }
        continue;  // retry the shard
      }
      // Per-machine progress hooks, fired once for the kept attempt only
      // (a discarded attempt must not inflate the registry's counter).
      if (auto* o = obs::observer()) {
        for (std::uint32_t i = 0; i < machines_done; ++i) {
          o->on_fleet_machine_done();
        }
      }
      break;
    }
    if (config.progress != nullptr) {
      config.progress->shards_completed.fetch_add(1, std::memory_order_relaxed);
    }
    obs::emit({result.horizon_end, obs::FlightEventKind::kShardDone,
               static_cast<std::uint32_t>(s),
               static_cast<std::int32_t>(summary.first_machine),
               static_cast<std::int32_t>(summary.machine_count)});
    // With telemetry on, the sample count lived in the bins (the
    // detector-sample fast path skips the shard counter); fold the total
    // back now that the shard is done — before the state blob is written,
    // so a resumed shard restores the folded value.
    if (want_metrics) {
      summary.counters.detector_samples += ts_shards[s].total_samples();
    }
    if (log) {
      // Segment and state blob are durable before the manifest claims the
      // shard (write-ahead of the data, behind of the claim).
      recover::ShardCheckpoint cp;
      cp.shard = s;
      cp.first_machine = summary.first_machine;
      cp.machine_count = summary.machine_count;
      cp.records = summary.records;
      cp.segment_name = segment_file_name(s);
      cp.state_name = recover::shard_state_name(s);
      cp.rng_key =
          recover::shard_rng_key(config.testbed.seed, summary.first_machine);
      cp.segment_crc = seg_crc;
      cp.segment_bytes = seg_bytes;
      recover::ShardState state;
      state.counters = summary.counters;
      state.records = summary.records;
      if (want_metrics) ts_shards[s].save_bins(state.ts_bins);
      cp.state_crc = recover::write_shard_state(
          join_path(config.spill_dir, cp.state_name), state);
      log->commit(cp);
    }
  };

  // A local pool sized to the requested thread count; the caller
  // participates in parallel_for, so `threads` means total executors.
  const std::size_t requested = config.threads != 0
                                    ? config.threads
                                    : util::configured_thread_count();
  util::ThreadPool pool(requested > 1 ? requested - 1 : 0);
  util::parallel_for(shard_count, run_shard, pool);

  // One durable sync for the whole sweep: intermediate manifest rewrites
  // are rename-only (crash-safe against process death via the page
  // cache), so this is where the completed claim trail becomes durable
  // against OS crash as well.
  if (log) log->sync();

  // Fold the per-shard counters into the installed observer (if any) in
  // shard order, off the parallel section — deterministic merge order.
  if (auto* o = obs::observer()) {
    for (const auto& s : result.shards) o->merge_shard(s.counters);
  }
  for (const auto& s : result.shards) {
    result.total_records += s.records;
    result.total_retries += s.retries;
    result.quarantined.insert(result.quarantined.end(), s.quarantined.begin(),
                              s.quarantined.end());
  }
  std::sort(result.quarantined.begin(), result.quarantined.end());

  if (want_metrics) {
    write_metrics_segment(config, result, ts_shards);
    result.metrics_path = config.metrics_path;
  }

  if (!spill) {
    trace::TraceSet trace(machines, result.horizon_start, result.horizon_end);
    trace.reserve(result.total_records);
    // Shard-major, machine-major: the canonical order, so records() stays
    // re-sort-free.
    for (auto& records : shard_records) {
      for (const auto& r : records) trace.add(r);
      records.clear();
      records.shrink_to_fit();
    }
    result.trace.emplace(std::move(trace));
  }
  return result;
}

}  // namespace fgcs::fleet
