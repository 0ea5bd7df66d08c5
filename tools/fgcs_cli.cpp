// fgcs — command-line front end for the library.
//
//   fgcs simulate  --out trace.trc [--machines N] [--days D] [--seed S]
//                  [--profile purdue|enterprise] [--fault-plan plan.txt]
//   fgcs fleet     --machines N [--days D] [--seed S] [--threads T]
//                  [--spill-dir DIR] [--shard-machines M] [--out trace]
//   fgcs analyze   <trace> [--start-dow 0..6] [--salvage]
//   fgcs predict   <trace> [--train-days D] [--window-hours H] [--salvage]
//   fgcs guests    [<trace>] [--checkpoint-interval MIN] [--migrate] ...
//   fgcs calibrate [--profile linux|solaris]
//   fgcs stats     <segment.met1> [--series NAME] [--op ...] [--q Q] ...
//   fgcs query     <spill-dir | segment.trc2...> [--pred P] [--no-pushdown]
//                  [--threads T] [--start-dow 0..6] [--window-hours H]
//   fgcs serve     [--machines N] [--days D] [--queries Q] [--mix M]
//                  [--window-hours H] [--seed S] [--out report.json]
//
// `simulate` runs the testbed (optionally under an injected fault plan)
// and writes a trace; `fleet` runs the sharded sweep engine for
// N-thousand-machine studies, spilling per-shard columnar (format v2)
// segments instead of materializing the fleet in memory; `analyze`
// reproduces the paper's Table 2 / Figure 6
// / Figure 7 statistics from any saved trace; `predict` runs the
// predictor panel; `guests` runs the resilient guest-job lifecycle
// (checkpoint/restart/backoff/migration); `calibrate` derives Th1/Th2 for
// a scheduler profile via the offline contention sweep; `stats` queries a
// sim-time-aligned FGCSMET1 metrics segment (windowed value / delta /
// rate / quantile, per-shard or per-machine-range) without materializing
// it; `query` runs the analyzer + training-scan aggregations directly on
// spilled v2 segments (zone-map pushdown, no TraceSet materialization —
// see docs/analytics.md). `--salvage` recovers what it can from damaged
// traces instead of failing.
//
// Every command also accepts the observability flags:
//   --metrics-out=<csv>   write a metrics snapshot when the command ends
//   --trace-out=<json>    write a Chrome/Perfetto trace (simulated time)
//   --trace-limit=<n>     trace ring-buffer capacity (default 1000000)
//   --metrics-ts-out=<f>  FGCSMET1 time-series segment (see `fgcs stats`)
//   --flight-out=<txt>    flight-recorder post-mortem (first fault,
//                         SIGUSR1, or end of run)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fgcs/core/analyzer.hpp"
#include "fgcs/core/contention.hpp"
#include "fgcs/core/guest_study.hpp"
#include "fgcs/core/prediction_study.hpp"
#include "fgcs/core/testbed.hpp"
#include "fgcs/fault/fault_plan.hpp"
#include "fgcs/fleet/fleet.hpp"
#include "fgcs/obs/flight_recorder.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/obs/timeseries.hpp"
#include "fgcs/query/engine.hpp"
#include "fgcs/serve/load.hpp"
#include "fgcs/trace/io.hpp"
#include "fgcs/util/cli.hpp"
#include "fgcs/util/csv.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/table.hpp"

using namespace fgcs;

namespace {

using Args = util::CliArgs;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  fgcs simulate  --out <path> [--machines N] [--days D] [--seed S]\n"
      "                 [--profile purdue|enterprise] [--fault-plan <file>]\n"
      "  fgcs fleet     --machines N [--days D] [--seed S] [--threads T]\n"
      "                 [--spill-dir <dir>] [--shard-machines M]\n"
      "                 [--out <path>] [--profile purdue|enterprise]\n"
      "                 [--fault-plan <file>] [--resume] [--no-checkpoint]\n"
      "                 [--max-shard-retries N]\n"
      "  fgcs analyze   <trace> [--start-dow 0..6] [--salvage]\n"
      "  fgcs predict   <trace> [--train-days D] [--window-hours H]\n"
      "                 [--salvage]\n"
      "  fgcs guests    [<trace>] [--machines N] [--days D] [--seed S]\n"
      "                 [--fault-plan <file>] [--job-hours H]\n"
      "                 [--checkpoint-interval MIN] [--checkpoint-cost MIN]\n"
      "                 [--migrate] [--salvage]\n"
      "  fgcs calibrate [--profile linux|solaris]\n"
      "  fgcs figures   --out <dir> [--quick]\n"
      "  fgcs stats     <segment.met1> [--series NAME]\n"
      "                 [--op value|delta|rate|quantile] [--q Q]\n"
      "                 [--window-hours W | --from-hours F --to-hours T]\n"
      "                 [--shard K | --machines A-B]\n"
      "  fgcs query     <spill-dir | segment.trc2...> [--pred <predicate>]\n"
      "                 [--no-pushdown] [--threads T] [--start-dow 0..6]\n"
      "                 [--window-hours H]\n"
      "  fgcs serve     [--machines N] [--days D] [--queries Q]\n"
      "                 [--mix uniform|zipf:<skew>|sweep:<lo>-<hi>]\n"
      "                 [--window-hours H] [--publish-every N] [--seed S]\n"
      "                 [--out report.json]\n"
      "\ntrace format chosen by extension: .csv is textual, anything else\n"
      "is the compact binary format. `figures` writes one plottable CSV\n"
      "per paper figure/table into <dir>.\n"
      "\nfleet (sharded sweep engine):\n"
      "  --spill-dir=<dir>    stream per-shard columnar trace segments\n"
      "                       (format v2, shard-NNNN.trc2) to <dir> instead\n"
      "                       of holding the fleet trace in memory; readers\n"
      "                       (`analyze --salvage`, `predict`, ...) open\n"
      "                       segments directly via the format-v2 loader\n"
      "  --shard-machines=M   machines per shard (0 = derive automatically)\n"
      "  --threads=T          worker threads (0 = FGCS_THREADS / hardware)\n"
      "  --out=<path>         also write the merged fleet trace\n"
      "  --metrics-ts-out=<f> write a sim-time-binned FGCSMET1 metrics\n"
      "                       segment (fleet totals + per-shard series);\n"
      "                       query with `fgcs stats`\n"
      "  --ts-resolution-hours=<h>  bin width of that segment (default 1)\n"
      "  --progress           live progress to stderr: machines/shards\n"
      "                       done, machine-days/sec, ETA, stall watchdog\n"
      "  --stall-days=<d>     watchdog: flag a started shard once the rest\n"
      "                       of the fleet advances d machine-days without\n"
      "                       it moving (default 30)\n"
      "  --resume             validate --spill-dir's checkpoint (MANIFEST +\n"
      "                       per-shard CRCs) and skip every shard that\n"
      "                       proves complete; the merged trace and metrics\n"
      "                       are byte-identical to an uninterrupted run\n"
      "  --no-checkpoint      skip the per-shard durable checkpoint commit\n"
      "                       (state blob + MANIFEST line) in spill mode\n"
      "  --max-shard-retries=<n>  per-machine failure budget before the\n"
      "                       supervisor quarantines a machine (default 2)\n"
      "\nrobustness:\n"
      "  --fault-plan=<file>  inject faults from a declarative plan (see\n"
      "                       docs/robustness.md for the format): machine\n"
      "                       crashes, sensor dropouts, clock-skew blips,\n"
      "                       guest kills. Deterministic in (plan, seed).\n"
      "  --salvage            recover well-formed records from a damaged\n"
      "                       trace instead of failing on the first defect\n"
      "  `guests` runs the resilient guest-job lifecycle on a trace (or a\n"
      "  fresh simulation): periodic checkpointing (--checkpoint-interval,\n"
      "  --checkpoint-cost, minutes; 0 disables), restart with capped\n"
      "  exponential backoff + jitter, optional migration (--migrate).\n"
      "\nobservability (any command):\n"
      "  --metrics-out=<csv>  metrics snapshot (counters/gauges/histograms)\n"
      "  --trace-out=<json>   Chrome/Perfetto trace keyed on simulated time\n"
      "  --trace-limit=<n>    trace ring-buffer capacity (default 1000000)\n"
      "  --metrics-ts-out=<f> FGCSMET1 time-series segment: fleet bins the\n"
      "                       sweep over sim time; other commands write a\n"
      "                       final whole-registry snapshot\n"
      "  --flight-out=<txt>   flight recorder: ring of recent structured\n"
      "                       events, dumped sim-time-ordered on the first\n"
      "                       injected fault, on SIGUSR1, or at exit\n"
      "  --flight-capacity=<n> flight-recorder ring capacity (default 4096)\n"
      "\nstats (FGCSMET1 segments, e.g. fleet --metrics-ts-out):\n"
      "  no --series          segment summary: horizon, resolution, every\n"
      "                       series with its sample count and final value\n"
      "  --op value           cumulative value at the window end (default)\n"
      "  --op delta           increase across the window\n"
      "  --op rate            delta per hour\n"
      "  --op quantile --q Q  quantile from a histogram family's buckets\n"
      "                       (--series names the family, e.g.\n"
      "                       detector.episode_minutes)\n"
      "  --window-hours=W     last W hours of the horizon\n"
      "  --from-hours/--to-hours  explicit window (hours from start)\n"
      "  --shard=K            one shard's series instead of fleet totals\n"
      "  --machines=A-B       sum over shards covering machines A..B\n"
      "\nquery (streaming analytics over spilled v2 segments):\n"
      "  runs the analyze aggregations (Table 2, Figures 6/7) plus the\n"
      "  semi-Markov training scan directly on shard-NNNN.trc2 segments\n"
      "  (e.g. fleet --spill-dir output) without materializing a TraceSet;\n"
      "  per-block zone maps skip blocks the predicate cannot match\n"
      "  (see docs/analytics.md)\n"
      "  --pred=<p>           predicate: \"all\" (default) or clauses like\n"
      "                       \"machine=[0,100) cause=S5 time=[0,86400000000)\"\n"
      "  --no-pushdown        disable block pruning (brute-force full scan)\n"
      "  --threads=T          scan worker threads (0 = FGCS_THREADS / hw)\n"
      "  --window-hours=H     training-scan prediction window (default 1)\n"
      "\nserve (online availability service):\n"
      "  simulates the fleet with a live AvailabilityFeed subscribed to\n"
      "  the observer's episode events (ingest-as-you-go, the trace is\n"
      "  never rescanned), then drives the configured query load against\n"
      "  the published snapshot and reports qps + p50/p99 query latency\n"
      "  (see docs/serving.md)\n"
      "  --mix=uniform        every machine equally likely\n"
      "  --mix=zipf:<skew>    hot-machine skew (default zipf:1.1)\n"
      "  --mix=sweep:<lo>-<hi>  window swept over [lo, hi] hours\n"
      "  --publish-every=<n>  ingests per snapshot swap (default 1024)\n"
      "  --out=<json>         machine-readable report\n"
      "\nenvironment:\n"
      "  FGCS_THREADS=<n>     worker threads for parallel phases (testbed\n"
      "                       machines, figure sweeps); 0 runs everything\n"
      "                       inline on the calling thread. Default: one\n"
      "                       worker per hardware thread.\n"
      "  FGCS_PIN_THREADS=1   pin pool workers to cores (worker i -> core\n"
      "                       i+1); reduces migration jitter on dedicated\n"
      "                       multi-core hosts. Default: off.\n"
      "  FGCS_HUGE_PAGES=1    back arena chunks >= 2 MiB with huge-page\n"
      "                       hinted mappings; falls back to the heap if\n"
      "                       unavailable. Default: off.\n"
      "  FGCS_DURABILITY=<l>  fsync policy for spilled segments/checkpoints:\n"
      "                       none (no fsync), commit (fsync at seal/rename,\n"
      "                       the default), block (also fsync every sealed\n"
      "                       block — slow, max crash safety).\n");
  return 2;
}

// SIGUSR1 asks a running command for a live flight-recorder post-mortem.
// The handler only sets a flag; a watcher thread inside ObsSession does
// the actual dump (writing files from a signal handler isn't safe).
volatile std::sig_atomic_t g_flight_dump_requested = 0;
void handle_sigusr1(int) { g_flight_dump_requested = 1; }

// Installs the global observer for the duration of one CLI command when
// --metrics-out / --trace-out / --flight-out / --metrics-ts-out is
// given, and writes the outputs afterwards. `fleet` consumes
// --metrics-ts-out itself (it bins the sweep over sim time); every other
// command gets a final whole-registry snapshot segment here.
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : metrics_path_(args.get("metrics-out", "")),
        trace_path_(args.get("trace-out", "")),
        flight_path_(args.get("flight-out", "")),
        ts_path_(args.command() == "fleet" ? ""
                                           : args.get("metrics-ts-out", "")) {
    if (metrics_path_.empty() && trace_path_.empty() &&
        flight_path_.empty() && ts_path_.empty()) {
      return;
    }
    obs::Observer::Options options;
    options.trace_capacity =
        static_cast<std::size_t>(args.get_int("trace-limit", 1'000'000));
    options.enable_trace = !trace_path_.empty();
    observer_ = std::make_unique<obs::Observer>(options);
    if (!flight_path_.empty()) {
      obs::FlightRecorder::Options fopts;
      fopts.capacity =
          static_cast<std::size_t>(args.get_int("flight-capacity", 4096));
      fopts.dump_path = flight_path_;
      flight_ = std::make_unique<obs::FlightRecorder>(fopts);
      // Attach before installing the observer: hooks read the pointer
      // unsynchronized.
      observer_->set_flight_recorder(flight_.get());
      std::signal(SIGUSR1, handle_sigusr1);
      sig_watcher_ = std::thread([this] {
        while (!stop_watcher_.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
          if (g_flight_dump_requested != 0) {
            g_flight_dump_requested = 0;
            if (flight_->dump("signal SIGUSR1")) {
              std::fprintf(stderr,
                           "fgcs: wrote flight-recorder dump to %s "
                           "(SIGUSR1)\n",
                           flight_path_.c_str());
            }
          }
        }
      });
    }
    obs::set_observer(observer_.get());
  }

  ~ObsSession() {
    obs::set_observer(nullptr);
    if (sig_watcher_.joinable()) {
      stop_watcher_.store(true, std::memory_order_relaxed);
      sig_watcher_.join();
    }
  }

  /// Writes the requested outputs; called after the command succeeds.
  void flush() {
    if (observer_ == nullptr) return;
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (!out) throw IoError("cannot write " + metrics_path_);
      observer_->metrics().write_csv(out);
      std::printf("wrote metrics snapshot to %s\n", metrics_path_.c_str());
    }
    if (!trace_path_.empty()) {
      std::ofstream out(trace_path_);
      if (!out) throw IoError("cannot write " + trace_path_);
      observer_->trace().write_chrome_json(out);
      std::printf(
          "wrote %zu trace events to %s (%llu dropped by ring buffer); "
          "open in https://ui.perfetto.dev\n",
          observer_->trace().size(), trace_path_.c_str(),
          static_cast<unsigned long long>(observer_->trace().dropped()));
    }
    if (flight_ != nullptr) {
      if (flight_->dumped()) {
        // A fault (or SIGUSR1) already wrote the interesting post-mortem;
        // leave it in place.
        std::printf("flight recorder: post-mortem already dumped to %s\n",
                    flight_path_.c_str());
      } else if (flight_->dump("run-complete")) {
        std::printf(
            "wrote flight-recorder timeline (%llu events, %llu dropped) "
            "to %s\n",
            static_cast<unsigned long long>(flight_->recorded()),
            static_cast<unsigned long long>(flight_->dropped()),
            flight_path_.c_str());
      }
    }
    if (!ts_path_.empty()) {
      // Single final snapshot of every registered series, stamped at the
      // sim epoch: enough for `fgcs stats --op value` over any command's
      // end-state. The fleet command writes real binned series instead.
      obs::write_registry_snapshot(observer_->metrics(), ts_path_,
                                   sim::SimTime::epoch());
      std::printf("wrote metrics time-series snapshot to %s\n",
                  ts_path_.c_str());
    }
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::string flight_path_;
  std::string ts_path_;
  std::unique_ptr<obs::Observer> observer_;
  std::unique_ptr<obs::FlightRecorder> flight_;
  std::atomic<bool> stop_watcher_{false};
  std::thread sig_watcher_;
};

core::TestbedConfig testbed_config_from(const Args& args) {
  core::TestbedConfig config;
  config.machines = static_cast<std::uint32_t>(args.get_int("machines", 20));
  config.days = static_cast<int>(args.get_int("days", 92));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 20050815));
  const std::string profile = args.get("profile", "purdue");
  if (profile == "purdue") {
    config.profile = workload::LabProfile::purdue_lab();
  } else if (profile == "enterprise") {
    config.profile = workload::LabProfile::enterprise_desktop();
  } else {
    throw fgcs::ConfigError("unknown profile: " + profile);
  }
  if (args.has_option("fault-plan")) {
    config.faults = fault::FaultPlan::load(args.get("fault-plan", ""));
  }
  return config;
}

/// Loads a trace path, honoring --salvage (report damage, keep going).
trace::TraceSet load_trace_cli(const Args& args, const std::string& path) {
  if (!args.has_flag("salvage")) return trace::load_trace(path);
  auto report = trace::load_trace_salvage(path);
  std::printf("salvage: recovered %zu record(s), skipped %zu%s%s\n",
              report.recovered, report.skipped,
              report.truncated ? ", input truncated" : "",
              report.metadata_inferred ? ", metadata inferred" : "");
  for (const auto& d : report.diagnostics) {
    std::printf("  %s\n", d.c_str());
  }
  return std::move(report.trace);
}

int cmd_simulate(const Args& args) {
  if (!args.has_option("out")) return usage();
  const auto config = testbed_config_from(args);
  std::printf("simulating %u machines for %d days (seed %llu%s)...\n",
              config.machines, config.days,
              static_cast<unsigned long long>(config.seed),
              config.faults.empty() ? "" : ", fault plan loaded");
  const auto trace = core::run_testbed(config);
  const std::string path = args.get("out", "trace.trc");
  trace::save_trace(trace, path);
  std::printf("wrote %zu unavailability records to %s\n", trace.size(),
              path.c_str());
  return 0;
}

int cmd_fleet(const Args& args) {
  fleet::FleetConfig config;
  config.testbed = testbed_config_from(args);
  config.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.spill_dir = args.get("spill-dir", "");
  config.shard_machines =
      static_cast<std::uint32_t>(args.get_int("shard-machines", 0));
  config.metrics_path = args.get("metrics-ts-out", "");
  config.metrics_resolution =
      sim::SimDuration::hours(args.get_int("ts-resolution-hours", 1));
  config.checkpoint = !args.has_flag("no-checkpoint");
  config.resume = args.has_flag("resume");
  config.max_shard_retries =
      static_cast<int>(args.get_int("max-shard-retries", 2));

  std::printf("fleet: %u machines x %d days (seed %llu, %u machines/shard%s%s)"
              "...\n",
              config.testbed.machines, config.testbed.days,
              static_cast<unsigned long long>(config.testbed.seed),
              config.effective_shard_machines(),
              config.spill_dir.empty() ? ", in-memory" : ", spilling",
              config.resume ? ", resuming" : "");

  // Live introspection (wall-clock, so it lives here and not in the
  // deterministic fleet library): a monitor thread polls the progress
  // counters, prints throughput + ETA, and flags stalled shards.
  std::optional<fleet::FleetProgress> progress;
  std::atomic<bool> fleet_done{false};
  std::thread monitor;
  if (args.has_flag("progress")) {
    progress.emplace(config.shard_count());
    config.progress = &*progress;
    const std::uint64_t total_machines = config.testbed.machines;
    const std::uint32_t per_shard = config.effective_shard_machines();
    const double day_span = static_cast<double>(config.testbed.days);
    const double stall_md =
        static_cast<double>(args.get_int("stall-days", 30));
    monitor = std::thread([&progress, &fleet_done, total_machines, per_shard,
                           day_span, stall_md] {
      const auto t0 = std::chrono::steady_clock::now();
      const std::size_t shards = progress->shard_machines_done.size();
      std::vector<std::uint64_t> last(shards, 0);
      std::vector<double> md_at_change(shards, 0.0);
      std::vector<bool> flagged(shards, false);
      while (!fleet_done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
        const double elapsed = std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count();
        const std::uint64_t done =
            progress->machines_done.load(std::memory_order_relaxed);
        const double md = static_cast<double>(done) * day_span;
        const double rate = elapsed > 0.0 ? md / elapsed : 0.0;
        const double remaining =
            static_cast<double>(total_machines - done) * day_span;
        std::fprintf(
            stderr,
            "fleet: %llu/%llu machines, %llu/%zu shards, "
            "%.1f machine-days/s, ETA %.0fs\n",
            static_cast<unsigned long long>(done),
            static_cast<unsigned long long>(total_machines),
            static_cast<unsigned long long>(
                progress->shards_completed.load(std::memory_order_relaxed)),
            shards, rate, rate > 0.0 ? remaining / rate : 0.0);
        // Stall watchdog: a shard that has started but not advanced while
        // the rest of the fleet covered `stall_md` machine-days.
        for (std::size_t s = 0; s < shards; ++s) {
          const std::uint64_t c =
              progress->shard_machines_done[s].load(std::memory_order_relaxed);
          const std::uint64_t expect = std::min<std::uint64_t>(
              per_shard, total_machines - s * per_shard);
          if (c != last[s]) {
            last[s] = c;
            md_at_change[s] = md;
            flagged[s] = false;
          } else if (!flagged[s] && c > 0 && c < expect &&
                     md - md_at_change[s] > stall_md) {
            flagged[s] = true;
            std::fprintf(stderr,
                         "fleet: WARNING shard %04zu stalled at %llu/%llu "
                         "machines (no progress in the last %.0f fleet "
                         "machine-days)\n",
                         s, static_cast<unsigned long long>(c),
                         static_cast<unsigned long long>(expect),
                         md - md_at_change[s]);
          }
        }
      }
    });
  }

  fleet::FleetResult result;
  try {
    result = fleet::run_fleet(config);
  } catch (...) {
    fleet_done.store(true, std::memory_order_relaxed);
    if (monitor.joinable()) monitor.join();
    throw;
  }
  fleet_done.store(true, std::memory_order_relaxed);
  if (monitor.joinable()) monitor.join();

  std::printf("fleet: %llu machine-days, %llu unavailability records across "
              "%zu shard(s)\n",
              static_cast<unsigned long long>(result.machine_days()),
              static_cast<unsigned long long>(result.total_records),
              result.shards.size());
  if (result.resumed_shards > 0 || !result.resume_dropped.empty()) {
    std::printf("fleet: resumed %zu shard(s) from checkpoint, re-ran %zu\n",
                result.resumed_shards,
                result.shards.size() - result.resumed_shards);
    for (const auto& reason : result.resume_dropped) {
      std::printf("fleet: re-ran %s\n", reason.c_str());
    }
  }
  if (result.total_retries > 0) {
    std::printf("fleet: %llu shard attempt(s) retried\n",
                static_cast<unsigned long long>(result.total_retries));
  }
  for (const auto m : result.quarantined) {
    std::printf("fleet: WARNING machine %u quarantined — its records are "
                "absent from the sweep\n",
                static_cast<unsigned>(m));
  }
  if (!result.metrics_path.empty()) {
    std::printf("wrote metrics time series to %s\n",
                result.metrics_path.c_str());
  }
  if (result.spilled) {
    std::printf("fleet: segments in %s (%s .. %s)\n", config.spill_dir.c_str(),
                result.shards.front().segment_path.c_str(),
                result.shards.back().segment_path.c_str());
  }
  if (args.has_option("out")) {
    const std::string path = args.get("out", "fleet.trc");
    trace::save_trace(result.load_trace(), path);
    std::printf("wrote merged fleet trace to %s\n", path.c_str());
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.positional().empty()) return usage();
  const auto trace = load_trace_cli(args, args.positional()[0]);
  const auto dow = static_cast<trace::DayOfWeek>(args.get_int("start-dow", 0));
  const core::TraceAnalyzer analyzer(trace, trace::TraceCalendar(dow));

  std::printf("trace: %u machines, %s, %zu records\n\n", trace.machine_count(),
              util::format_duration_s(trace.horizon().as_seconds()).c_str(),
              trace.size());

  const auto t2 = analyzer.table2();
  util::TextTable causes({"Cause", "Per-machine", "Share"});
  auto range = [](const core::Table2Stats::Range& r) {
    return std::to_string(r.min) + "-" + std::to_string(r.max);
  };
  auto share = [&](double lo, double hi) {
    return util::format_percent(lo, 0) + "-" + util::format_percent(hi, 0);
  };
  causes.add("total", range(t2.total), "100%");
  causes.add("UEC: CPU (S3)", range(t2.cpu_contention),
             share(t2.cpu_pct_min, t2.cpu_pct_max));
  causes.add("UEC: memory (S4)", range(t2.mem_contention),
             share(t2.mem_pct_min, t2.mem_pct_max));
  causes.add("URR (S5)", range(t2.urr), share(t2.urr_pct_min, t2.urr_pct_max));
  std::printf("%s", causes.str().c_str());
  std::printf("reboot share of URR: %s\n\n",
              util::format_percent(t2.reboot_fraction_of_urr, 0).c_str());

  const auto iv = analyzer.intervals();
  std::printf("availability intervals: weekday n=%zu mean=%s | "
              "weekend n=%zu mean=%s\n\n",
              iv.weekday.count,
              util::format_duration_s(iv.weekday.mean_hours * 3600).c_str(),
              iv.weekend.count,
              util::format_duration_s(iv.weekend.mean_hours * 3600).c_str());

  const auto hourly = analyzer.hourly();
  util::TextTable pattern({"Hour", "Weekday mean", "Weekday range",
                           "Weekend mean", "Weekend range"});
  for (int h = 0; h < 24; ++h) {
    const auto hh = static_cast<std::size_t>(h);
    pattern.add(std::to_string(h),
                util::format_double(hourly.weekday[hh].mean, 1),
                util::format_double(hourly.weekday[hh].min, 0) + "-" +
                    util::format_double(hourly.weekday[hh].max, 0),
                util::format_double(hourly.weekend[hh].mean, 1),
                util::format_double(hourly.weekend[hh].min, 0) + "-" +
                    util::format_double(hourly.weekend[hh].max, 0));
  }
  std::printf("%s", pattern.str().c_str());
  return 0;
}

int cmd_query(const Args& args) {
  if (args.positional().empty()) return usage();

  // One positional directory → every *.trc2 inside it (fleet spill
  // layout); otherwise the positionals are explicit segment paths.
  std::vector<std::string> paths;
  if (args.positional().size() == 1 &&
      std::filesystem::is_directory(args.positional()[0])) {
    paths = query::SegmentQuery::list_segments(args.positional()[0]);
  } else {
    paths.assign(args.positional().begin(), args.positional().end());
  }

  const query::SegmentQuery segments(paths);

  query::QueryOptions options;
  options.predicate = query::Predicate::parse(args.get("pred", "all"));
  const auto dow = static_cast<trace::DayOfWeek>(args.get_int("start-dow", 0));
  options.calendar = trace::TraceCalendar(dow);
  options.training_window =
      sim::SimDuration::hours(args.get_int("window-hours", 1));
  options.disable_pruning = args.has_flag("no-pushdown");
  std::unique_ptr<util::ThreadPool> pool;
  if (args.has_option("threads")) {
    pool = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(args.get_int("threads", 0)));
    options.pool = pool.get();
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = segments.run(options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("segments: %zu (%zu salvaged), %u machines, horizon %s\n",
              segments.segment_count(), segments.salvaged_count(),
              segments.machine_count(),
              util::format_duration_s(
                  (segments.horizon_end() - segments.horizon_start())
                      .as_seconds())
                  .c_str());
  std::printf("predicate: %s%s\n\n", options.predicate.str().c_str(),
              options.disable_pruning ? " (pushdown disabled)" : "");

  const auto& t2 = result.table2;
  util::TextTable causes({"Cause", "Per-machine", "Share"});
  auto range = [](const core::Table2Stats::Range& r) {
    return std::to_string(r.min) + "-" + std::to_string(r.max);
  };
  auto share = [&](double lo, double hi) {
    return util::format_percent(lo, 0) + "-" + util::format_percent(hi, 0);
  };
  causes.add("total", range(t2.total), "100%");
  causes.add("UEC: CPU (S3)", range(t2.cpu_contention),
             share(t2.cpu_pct_min, t2.cpu_pct_max));
  causes.add("UEC: memory (S4)", range(t2.mem_contention),
             share(t2.mem_pct_min, t2.mem_pct_max));
  causes.add("URR (S5)", range(t2.urr), share(t2.urr_pct_min, t2.urr_pct_max));
  std::printf("%s", causes.str().c_str());
  std::printf("reboot share of URR: %s\n\n",
              util::format_percent(t2.reboot_fraction_of_urr, 0).c_str());

  const auto& iv = result.intervals;
  std::printf("availability intervals: weekday n=%zu mean=%s | "
              "weekend n=%zu mean=%s\n",
              iv.weekday.count,
              util::format_duration_s(iv.weekday.mean_hours * 3600).c_str(),
              iv.weekend.count,
              util::format_duration_s(iv.weekend.mean_hours * 3600).c_str());
  std::printf("hourly relative deviation: weekday=%s weekend=%s\n\n",
              util::format_double(result.relative_deviation_weekday, 3).c_str(),
              util::format_double(result.relative_deviation_weekend, 3).c_str());

  const auto& tr = result.training;
  const double m = tr.machines ? static_cast<double>(tr.machines) : 1.0;
  std::printf("training scan: %llu machines (%llu with history, %llu gap "
              "samples)\n",
              static_cast<unsigned long long>(tr.machines),
              static_cast<unsigned long long>(tr.machines_with_history),
              static_cast<unsigned long long>(tr.gap_samples));
  std::printf("  mean availability=%s mean occurrences=%s (window %s)\n\n",
              util::format_double(tr.availability_sum / m, 4).c_str(),
              util::format_double(tr.occurrences_sum / m, 4).c_str(),
              util::format_duration_s(options.training_window.as_seconds())
                  .c_str());

  const auto& st = result.stats;
  std::printf("scan: blocks %zu total = %zu scanned + %zu skipped "
              "(%zu unindexed)\n",
              st.blocks_total, st.blocks_scanned, st.blocks_skipped,
              st.blocks_unindexed);
  const double rate =
      wall_s > 0.0 ? static_cast<double>(st.records_scanned) / wall_s : 0.0;
  std::printf("      records %llu scanned, %llu matched in %s "
              "(%.0f records/s)\n",
              static_cast<unsigned long long>(st.records_scanned),
              static_cast<unsigned long long>(st.records_matched),
              util::format_duration_s(wall_s).c_str(), rate);
  return 0;
}

int cmd_predict(const Args& args) {
  if (args.positional().empty()) return usage();
  const auto trace = load_trace_cli(args, args.positional()[0]);
  core::PredictionStudyConfig study;
  study.train_days = static_cast<int>(args.get_int("train-days", 56));
  study.windows = {
      sim::SimDuration::hours(args.get_int("window-hours", 2))};
  const auto rows =
      core::run_prediction_study(trace, trace::TraceCalendar{}, study);

  util::TextTable table({"Predictor", "Queries", "Brier", "Accuracy", "FPR"});
  for (const auto& row : rows) {
    table.add(row.result.predictor, row.result.queries,
              util::format_double(row.result.brier, 4),
              util::format_percent(row.result.accuracy, 1),
              util::format_percent(row.result.false_positive_rate, 1));
  }
  std::printf("%s", table.str().c_str());
  return 0;
}

int cmd_guests(const Args& args) {
  auto config = testbed_config_from(args);
  core::GuestLifecycleConfig lifecycle;
  lifecycle.job_length = sim::SimDuration::hours(args.get_int("job-hours", 8));
  lifecycle.checkpoint_interval =
      sim::SimDuration::minutes(args.get_int("checkpoint-interval", 0));
  lifecycle.checkpoint_cost =
      sim::SimDuration::minutes(args.get_int("checkpoint-cost", 2));
  lifecycle.migrate_on_revocation = args.has_flag("migrate");
  lifecycle.seed = config.seed;

  core::GuestStudyResult result;
  if (!args.positional().empty()) {
    const auto trace = load_trace_cli(args, args.positional()[0]);
    config.machines = trace.machine_count();
    result = core::run_guest_study(config, trace, lifecycle);
  } else {
    std::printf("simulating %u machines for %d days (seed %llu%s)...\n",
                config.machines, config.days,
                static_cast<unsigned long long>(config.seed),
                config.faults.empty() ? "" : ", fault plan loaded");
    result = core::run_guest_study(config, lifecycle);
  }
  std::printf(
      "guest lifecycle: %s jobs of %s, checkpoint %s, migration %s\n",
      std::to_string(result.jobs.size()).c_str(),
      util::format_duration_s(lifecycle.job_length.as_seconds()).c_str(),
      lifecycle.checkpoint_interval == sim::SimDuration::zero()
          ? "off"
          : util::format_duration_s(
                lifecycle.checkpoint_interval.as_seconds())
                .c_str(),
      lifecycle.migrate_on_revocation ? "on" : "off");
  std::printf("%s", result.summary_table().c_str());
  return 0;
}

int cmd_calibrate(const Args& args) {
  core::Fig1Config sweep;
  const std::string profile = args.get("profile", "linux");
  if (profile == "linux") {
    sweep.base.scheduler = os::SchedulerParams::linux_2_4();
    sweep.base.memory = os::MemoryParams::linux_1gb();
  } else if (profile == "solaris") {
    sweep.base.scheduler = os::SchedulerParams::solaris_ts();
    sweep.base.memory = os::MemoryParams::solaris_384mb();
  } else {
    throw fgcs::ConfigError("unknown profile: " + profile);
  }
  sweep.max_group_size = 3;
  std::printf("running the offline contention sweep on '%s'...\n",
              sweep.base.scheduler.name.c_str());
  const auto result = core::run_fig1(sweep);
  std::printf("Th1 = %.2f, Th2 = %.2f\n", result.th1, result.th2);
  return 0;
}

// -- fgcs stats --------------------------------------------------------------

// A series string split into base name + sorted labels, so queries can
// inject a {shard=NNNN} label into any series the segment spells with
// other labels (label order is canonical: sorted by key).
struct SeriesName {
  std::string base;
  std::map<std::string, std::string> labels;
};

SeriesName parse_series_name(const std::string& s) {
  SeriesName out;
  const auto brace = s.find('{');
  if (brace == std::string::npos || s.back() != '}') {
    out.base = s;
    return out;
  }
  out.base = s.substr(0, brace);
  const std::string body = s.substr(brace + 1, s.size() - brace - 2);
  std::size_t pos = 0;
  while (pos <= body.size()) {
    auto comma = body.find(',', pos);
    if (comma == std::string::npos) comma = body.size();
    const std::string kv = body.substr(pos, comma - pos);
    const auto eq = kv.find('=');
    if (eq != std::string::npos) {
      out.labels[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    pos = comma + 1;
  }
  return out;
}

std::string render_series_name(const SeriesName& n) {
  std::string out = n.base;
  if (n.labels.empty()) return out;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : n.labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += '=';
    out += v;
  }
  out += '}';
  return out;
}

/// Step-function value of a cumulative series at `t` (last sample <= t;
/// 0 before the first sample). Visits only blocks that can match.
double value_at(const obs::MetricsView& view, std::uint32_t series,
                sim::SimTime t) {
  double value = 0.0;
  view.for_each_of(series, sim::SimTime::from_micros(INT64_MIN), t,
                   [&](const obs::MetricPoint& p) { value = p.value; });
  return value;
}

double delta_over(const obs::MetricsView& view, std::uint32_t series,
                  sim::SimTime t0, sim::SimTime t1) {
  const sim::SimTime before =
      sim::SimTime::from_micros(t0.as_micros() - 1);
  return value_at(view, series, t1) - value_at(view, series, before);
}

/// The shard labels whose machine ranges intersect [lo, hi], read from
/// the fleet.shard_first_machine / fleet.shard_machines meta gauges the
/// fleet sweep writes into the segment.
std::vector<std::string> shards_for_machines(const obs::MetricsView& view,
                                             std::uint32_t lo,
                                             std::uint32_t hi) {
  constexpr std::string_view kPrefix = "fleet.shard_first_machine{shard=";
  std::vector<std::string> out;
  for (const auto& info : view.series()) {
    if (info.name.rfind(kPrefix, 0) != 0) continue;
    std::string label = info.name.substr(kPrefix.size());
    label.pop_back();  // trailing '}'
    const auto first_id = view.find_series(info.name);
    const auto count_id =
        view.find_series("fleet.shard_machines{shard=" + label + "}");
    if (!first_id || !count_id) continue;
    const auto first = static_cast<std::uint32_t>(
        value_at(view, *first_id, view.horizon_end()));
    const auto count = static_cast<std::uint32_t>(
        value_at(view, *count_id, view.horizon_end()));
    if (count == 0) continue;
    if (first <= hi && lo <= first + count - 1) out.push_back(label);
  }
  return out;
}

/// Quantile of the histogram family `family` over [t0, t1]: per-bucket
/// deltas are summed across the selected shard labels ("" = fleet
/// totals) and fed to the shared bucket-interpolation.
double quantile_over(const obs::MetricsView& view, const std::string& family,
                     const std::vector<std::string>& shard_labels,
                     sim::SimTime t0, sim::SimTime t1, double q) {
  const SeriesName fam = parse_series_name(family);
  std::map<double, double> by_bound;
  double overflow = 0.0;
  bool any = false;
  for (const auto& info : view.series()) {
    if (info.kind != obs::SeriesKind::kHistBucket) continue;
    SeriesName n = parse_series_name(info.name);
    if (n.base != fam.base + ".bucket") continue;
    const auto le = n.labels.find("le");
    if (le == n.labels.end()) continue;
    const std::string bound = le->second;
    n.labels.erase("le");
    std::string shard;
    if (auto it = n.labels.find("shard"); it != n.labels.end()) {
      shard = it->second;
      n.labels.erase(it);
    }
    if (std::find(shard_labels.begin(), shard_labels.end(), shard) ==
        shard_labels.end()) {
      continue;
    }
    if (n.labels != fam.labels) continue;
    const auto id = view.find_series(info.name);
    if (!id) continue;
    const double d = delta_over(view, *id, t0, t1);
    any = true;
    if (bound == "+inf") {
      overflow += d;
    } else {
      by_bound[std::strtod(bound.c_str(), nullptr)] += d;
    }
  }
  fgcs::require(any, "no bucket series for histogram family: " + family);
  std::vector<double> bounds;
  std::vector<std::uint64_t> counts;
  for (const auto& [b, c] : by_bound) {
    bounds.push_back(b);
    counts.push_back(static_cast<std::uint64_t>(std::llround(c)));
  }
  counts.push_back(static_cast<std::uint64_t>(std::llround(overflow)));
  return obs::quantile_from_buckets(bounds, counts, q);
}

int cmd_stats(const Args& args) {
  if (args.positional().empty()) return usage();
  const std::string path = args.positional()[0];
  fgcs::require(obs::is_metrics_v1(path),
                path + " is not an FGCSMET1 metrics segment");
  const obs::MetricsView view(path);

  // The query window, in hours from the horizon start.
  sim::SimTime t0 = view.horizon_start();
  sim::SimTime t1 = view.horizon_end();
  if (args.has_option("window-hours")) {
    t0 = t1 - sim::SimDuration::hours(args.get_int("window-hours", 0));
    if (t0 < view.horizon_start()) t0 = view.horizon_start();
  }
  if (args.has_option("from-hours")) {
    t0 = view.horizon_start() +
         sim::SimDuration::hours(args.get_int("from-hours", 0));
  }
  if (args.has_option("to-hours")) {
    t1 = view.horizon_start() +
         sim::SimDuration::hours(args.get_int("to-hours", 0));
  }
  fgcs::require(t1 >= t0, "stats window is empty (to < from)");
  const double from_h =
      static_cast<double>(t0.as_micros() - view.horizon_start().as_micros()) /
      3.6e9;
  const double to_h =
      static_cast<double>(t1.as_micros() - view.horizon_start().as_micros()) /
      3.6e9;

  if (!args.has_option("series")) {
    // Segment summary: one streaming pass, nothing materialized.
    const double horizon_h =
        static_cast<double>(view.horizon_end().as_micros() -
                            view.horizon_start().as_micros()) /
        3.6e9;
    std::printf("segment: %s\n", path.c_str());
    std::printf("horizon: %.6g h, resolution %.6g h, %llu samples in %zu "
                "block(s), %zu series\n",
                horizon_h,
                static_cast<double>(view.resolution().as_micros()) / 3.6e9,
                static_cast<unsigned long long>(view.size()),
                view.block_count(), view.series().size());
    std::vector<std::uint64_t> samples(view.series().size(), 0);
    std::vector<double> last(view.series().size(), 0.0);
    view.for_each([&](const obs::MetricPoint& p) {
      ++samples[p.series];
      last[p.series] = p.value;
    });
    util::TextTable table({"Series", "Kind", "Samples", "Last"});
    for (std::size_t i = 0; i < view.series().size(); ++i) {
      const auto& info = view.series()[i];
      char value[32];
      std::snprintf(value, sizeof value, "%.6g", last[i]);
      table.add(info.name, std::string(series_kind_name(info.kind)),
                std::to_string(samples[i]), value);
    }
    std::printf("%s", table.str().c_str());
    return 0;
  }

  const std::string name = args.get("series", "");
  const std::string op = args.get("op", "value");

  // Shard selection: fleet totals by default, one shard with --shard,
  // every overlapping shard with --machines A-B.
  std::vector<std::string> shard_labels{""};
  if (args.has_option("shard")) {
    char label[16];
    std::snprintf(label, sizeof label, "%04lld",
                  static_cast<long long>(args.get_int("shard", 0)));
    shard_labels = {label};
  } else if (args.has_option("machines")) {
    const std::string range = args.get("machines", "");
    const auto dash = range.find('-');
    fgcs::require(dash != std::string::npos && dash > 0,
                  "--machines wants A-B (e.g. 0-127)");
    const auto lo =
        static_cast<std::uint32_t>(std::strtoul(range.c_str(), nullptr, 10));
    const auto hi = static_cast<std::uint32_t>(
        std::strtoul(range.c_str() + dash + 1, nullptr, 10));
    fgcs::require(lo <= hi, "--machines wants A <= B");
    shard_labels = shards_for_machines(view, lo, hi);
    fgcs::require(!shard_labels.empty(),
                  "no shards in the segment cover machines " + range);
  }

  double result = 0.0;
  if (op == "quantile") {
    const double q = std::strtod(args.get("q", "0.5").c_str(), nullptr);
    fgcs::require(q >= 0.0 && q <= 1.0, "--q must be in [0, 1]");
    result = quantile_over(view, name, shard_labels, t0, t1, q);
  } else {
    fgcs::require(op == "value" || op == "delta" || op == "rate",
                  "unknown --op: " + op + " (value|delta|rate|quantile)");
    for (const auto& shard : shard_labels) {
      SeriesName n = parse_series_name(name);
      if (!shard.empty()) n.labels["shard"] = shard;
      const std::string full = render_series_name(n);
      const auto id = view.find_series(full);
      fgcs::require(id.has_value(), "no such series in segment: " + full);
      result += op == "value" ? value_at(view, *id, t1)
                              : delta_over(view, *id, t0, t1);
    }
    if (op == "rate") {
      const double hours =
          static_cast<double>(t1.as_micros() - t0.as_micros()) / 3.6e9;
      fgcs::require(hours > 0.0, "rate needs a non-empty window");
      result /= hours;
    }
  }
  std::printf("%s %s [%.6gh, %.6gh] = %.6g\n", name.c_str(), op.c_str(),
              from_h, to_h, result);
  return 0;
}

// `serve` — the online availability service: the testbed runs with a
// live AvailabilityFeed subscribed to the observer's episode events, so
// predictor state is folded in as each episode closes (the trace is
// never rescanned); then the configured query load runs against the
// published snapshot. Wall-clock timing is deliberate here — tools/ is
// outside the determinism lint, and throughput is the point.
int cmd_serve(const Args& args) {
  serve::LoadSpec spec;
  spec.machines = static_cast<std::uint32_t>(args.get_int("machines", 2000));
  const int days = static_cast<int>(args.get_int("days", 28));
  spec.queries = static_cast<std::uint64_t>(
      args.get_int("queries", 1'000'000));
  spec.mix = serve::MixSpec::parse(args.get("mix", "zipf:1.1"));
  spec.horizon_hours =
      static_cast<double>(args.get_int("window-hours", 4));
  spec.at_hours = 24.0 * days + 1.0;  // strictly past every episode
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 20060806));
  spec.validate();
  fgcs::require(days >= 1, "serve: --days must be >= 1");

  serve::FeedConfig fc;
  fc.machines = spec.machines;
  fc.horizon_start = sim::SimTime::epoch();
  fc.publish_every =
      static_cast<std::uint64_t>(args.get_int("publish-every", 1024));
  serve::AvailabilityFeed feed(fc);

  // Subscribe the feed to episode events. ObsSession may already have
  // installed an observer (obs flags); otherwise install a metrics-only
  // one for the duration of the run — the event sink is the only surface
  // it is there for. Either way the sink is detached before the feed
  // goes out of scope.
  std::unique_ptr<obs::Observer> local;
  obs::Observer* observer = obs::observer();
  std::optional<obs::ScopedObserver> guard;
  if (observer == nullptr) {
    obs::Observer::Options options;
    options.enable_trace = false;
    local = std::make_unique<obs::Observer>(options);
    observer = local.get();
    observer->set_event_sink(&feed);  // attach before install
    guard.emplace(observer);
  } else {
    observer->set_event_sink(&feed);
  }
  struct SinkDetach {
    obs::Observer* obs;
    ~SinkDetach() { obs->set_event_sink(nullptr); }
  } detach{observer};

  core::TestbedConfig tb;
  tb.machines = spec.machines;
  tb.days = days;
  tb.seed = spec.seed;
  std::printf("serve: ingesting %u machines x %d days live...\n",
              spec.machines, days);
  const auto ingest_t0 = std::chrono::steady_clock::now();
  const auto trace = core::run_testbed(tb);
  feed.publish();
  const double ingest_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_t0)
          .count();
  const std::uint64_t ingested = feed.events_ingested();
  fgcs::require(ingested == trace.size(),
                "serve: event seam dropped episodes");
  std::printf(
      "serve: ingested %llu episodes in %.2fs (%.0f events/s), "
      "%llu snapshot swaps\n",
      static_cast<unsigned long long>(ingested), ingest_s,
      ingest_s > 0 ? static_cast<double>(ingested) / ingest_s : 0.0,
      static_cast<unsigned long long>(feed.snapshots_published()));

  const serve::QueryEngine engine(feed);
  const serve::LoadGenerator gen(spec);

  // Latency pass: time a bounded sample of point queries individually.
  const std::uint64_t sample =
      std::min<std::uint64_t>(spec.queries, 100'000);
  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(sample));
  {
    const auto snap = engine.pin();
    for (std::uint64_t i = 0; i < sample; ++i) {
      const serve::ServeQuery q = gen.query(i);
      const auto t0 = std::chrono::steady_clock::now();
      volatile double p = engine.query(*snap, q).p_available;
      (void)p;
      lat_us.push_back(std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    }
  }
  std::sort(lat_us.begin(), lat_us.end());
  const double p50 = lat_us[lat_us.size() / 2];
  const double p99 = lat_us[lat_us.size() * 99 / 100];

  // Throughput pass: the full load through the batched path.
  const auto load_t0 = std::chrono::steady_clock::now();
  const serve::LoadStats stats = serve::run_load(engine, gen, 0,
                                                 spec.queries);
  const double load_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_t0)
          .count();
  const double qps =
      load_s > 0 ? static_cast<double>(stats.queries) / load_s : 0.0;
  std::printf(
      "serve: %llu queries (%s) in %.2fs -> %.0f queries/s, "
      "latency p50 %.3fus p99 %.3fus, mean p_available %.4f\n",
      static_cast<unsigned long long>(stats.queries), spec.mix.str().c_str(),
      load_s, qps, p50, p99,
      stats.prob_sum / static_cast<double>(stats.queries));

  if (args.has_option("out")) {
    const std::string path = args.get("out", "");
    std::ofstream out(path);
    if (!out) throw IoError("cannot write " + path);
    out << "{\n"
        << "  \"machines\": " << spec.machines << ",\n"
        << "  \"days\": " << days << ",\n"
        << "  \"ingest_events\": " << ingested << ",\n"
        << "  \"ingest_events_per_sec\": "
        << (ingest_s > 0 ? static_cast<double>(ingested) / ingest_s : 0.0)
        << ",\n"
        << "  \"snapshot_swaps\": " << feed.snapshots_published() << ",\n"
        << "  \"mix\": \"" << spec.mix.str() << "\",\n"
        << "  \"queries\": " << stats.queries << ",\n"
        << "  \"queries_per_sec\": " << qps << ",\n"
        << "  \"latency_p50_us\": " << p50 << ",\n"
        << "  \"latency_p99_us\": " << p99 << ",\n"
        << "  \"prob_checksum\": " << stats.prob_sum << "\n"
        << "}\n";
    std::printf("wrote serve report to %s\n", path.c_str());
  }
  return 0;
}

int cmd_figures(const Args& args) {
  if (!args.has_option("out")) return usage();
  const std::filesystem::path dir = args.get("out", "figures");
  std::filesystem::create_directories(dir);
  const bool quick = args.has_flag("quick");

  auto open_csv = [&](const char* name) {
    std::ofstream out(dir / name);
    if (!out) throw IoError("cannot write " + (dir / name).string());
    return out;
  };

  // Figures 1 and 2: contention sweeps.
  {
    core::Fig1Config cfg;
    if (quick) {
      cfg.base.measure = sim::SimDuration::minutes(3);
      cfg.base.combinations = 2;
      cfg.max_group_size = 3;
    }
    std::printf("fig1 (contention sweep)...\n");
    const auto result = core::run_fig1(cfg);
    auto out = open_csv("fig1.csv");
    util::CsvWriter csv(out);
    csv.write("panel", "lh", "group_size", "reduction", "lh_measured");
    for (const auto& p : result.points) {
      csv.write(p.guest_nice == 0 ? "a" : "b", p.lh_nominal, p.group_size,
                p.reduction, p.lh_measured);
    }
    std::printf("  Th1=%.2f Th2=%.2f\n", result.th1, result.th2);
  }
  {
    std::printf("fig2 (priority sweep)...\n");
    core::ContentionConfig cfg;
    if (quick) {
      cfg.measure = sim::SimDuration::minutes(3);
      cfg.combinations = 2;
    }
    const auto points = core::run_fig2(
        cfg, {0.2, 0.4, 0.6, 0.8, 1.0}, {0, 5, 10, 15, 18, 19});
    auto out = open_csv("fig2.csv");
    util::CsvWriter csv(out);
    csv.write("lh", "guest_nice", "reduction");
    for (const auto& p : points) csv.write(p.lh_nominal, p.guest_nice, p.reduction);
  }
  {
    std::printf("fig3 (guest usage)...\n");
    core::ContentionConfig cfg;
    if (quick) {
      cfg.measure = sim::SimDuration::minutes(3);
      cfg.combinations = 2;
    }
    auto out = open_csv("fig3.csv");
    util::CsvWriter csv(out);
    csv.write("host_usage", "guest_demand", "guest_equal", "guest_nice19");
    for (const auto& p : core::run_fig3(cfg)) {
      csv.write(p.host_usage, p.guest_demand, p.guest_usage_equal,
                p.guest_usage_lowest);
    }
  }
  {
    std::printf("fig4 + table1 (Solaris mixed contention)...\n");
    core::Fig4Config cfg;
    if (quick) {
      cfg.base.measure = sim::SimDuration::minutes(3);
    }
    auto out = open_csv("fig4.csv");
    util::CsvWriter csv(out);
    csv.write("host", "guest", "guest_nice", "reduction", "thrashing");
    for (const auto& c : core::run_fig4(cfg)) {
      csv.write(c.host_workload, c.guest_app, c.guest_nice, c.reduction,
                c.thrashing);
    }
    core::ContentionConfig t1cfg = cfg.base;
    auto out1 = open_csv("table1.csv");
    util::CsvWriter csv1(out1);
    csv1.write("workload", "cpu_usage", "resident_mb", "virtual_mb");
    for (const auto& row : core::run_table1(t1cfg)) {
      csv1.write(row.name, row.cpu_usage, row.resident_mb, row.virtual_mb);
    }
  }

  // Testbed figures.
  std::printf("testbed (table2, fig6, fig7, capacity)...\n");
  core::TestbedConfig testbed;
  if (quick) {
    testbed.machines = 8;
    testbed.days = 28;
  }
  const auto trace = core::run_testbed(testbed);
  const core::TraceAnalyzer analyzer(trace);
  {
    const auto t2 = analyzer.table2();
    auto out = open_csv("table2.csv");
    util::CsvWriter csv(out);
    csv.write("category", "min", "max", "mean");
    csv.write("total", t2.total.min, t2.total.max, t2.total.mean);
    csv.write("cpu", t2.cpu_contention.min, t2.cpu_contention.max,
              t2.cpu_contention.mean);
    csv.write("memory", t2.mem_contention.min, t2.mem_contention.max,
              t2.mem_contention.mean);
    csv.write("urr", t2.urr.min, t2.urr.max, t2.urr.mean);
  }
  {
    const auto iv = analyzer.intervals();
    auto out = open_csv("fig6.csv");
    util::CsvWriter csv(out);
    csv.write("hours", "weekday_cdf", "weekend_cdf");
    for (double h = 0.0; h <= 14.0; h += 0.1) {
      csv.write(h, iv.weekday.ecdf_hours(h), iv.weekend.ecdf_hours(h));
    }
  }
  {
    const auto hourly = analyzer.hourly();
    auto out = open_csv("fig7.csv");
    util::CsvWriter csv(out);
    csv.write("hour", "day_class", "mean", "min", "max", "stddev");
    for (std::size_t h = 0; h < 24; ++h) {
      csv.write(h, "weekday", hourly.weekday[h].mean, hourly.weekday[h].min,
                hourly.weekday[h].max, hourly.weekday[h].stddev);
      csv.write(h, "weekend", hourly.weekend[h].mean, hourly.weekend[h].min,
                hourly.weekend[h].max, hourly.weekend[h].stddev);
    }
  }
  {
    const auto capacity = core::run_capacity_profile(testbed);
    auto out = open_csv("capacity.csv");
    util::CsvWriter csv(out);
    csv.write("hour", "weekday_cpu", "weekend_cpu", "weekday_free_mem",
              "weekend_free_mem", "weekday_host_load", "weekend_host_load");
    for (std::size_t h = 0; h < 24; ++h) {
      csv.write(h, capacity.weekday_cpu[h], capacity.weekend_cpu[h],
                capacity.weekday_free_mem[h], capacity.weekend_free_mem[h],
                capacity.weekday_host_load[h], capacity.weekend_host_load[h]);
    }
  }
  std::printf("wrote CSV series into %s\n", dir.string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  try {
    ObsSession obs_session(args);
    int rc = 2;
    if (args.command() == "simulate") {
      rc = cmd_simulate(args);
    } else if (args.command() == "fleet") {
      rc = cmd_fleet(args);
    } else if (args.command() == "analyze") {
      rc = cmd_analyze(args);
    } else if (args.command() == "predict") {
      rc = cmd_predict(args);
    } else if (args.command() == "guests") {
      rc = cmd_guests(args);
    } else if (args.command() == "calibrate") {
      rc = cmd_calibrate(args);
    } else if (args.command() == "query") {
      rc = cmd_query(args);
    } else if (args.command() == "stats") {
      rc = cmd_stats(args);
    } else if (args.command() == "figures") {
      rc = cmd_figures(args);
    } else if (args.command() == "serve") {
      rc = cmd_serve(args);
    } else {
      return usage();
    }
    if (rc == 0) obs_session.flush();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fgcs: %s\n", e.what());
    return 1;
  }
}
