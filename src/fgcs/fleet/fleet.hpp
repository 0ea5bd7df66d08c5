// Fleet-scale sweep engine: sharded simulation with streaming traces.
//
// run_testbed() holds every machine's records in one TraceSet and funnels
// every obs counter through shared atomics — fine for the paper's 20
// machines, hostile to fleets of thousands. run_fleet() partitions the
// machine range into contiguous shards and runs each shard as one unit of
// work on the pool:
//
//   shard worker                         global
//   ------------------------------       ---------------------------
//   obs::CounterShard (plain u64) --+--> ShardSummary::counters, and
//   obs::TimeSeriesShard bins       |    the caller's Observer (once)
//   core::TestbedRunner::run(m)     +--> metrics_path (FGCSMET1)
//   trace::TraceWriterV2 segment ---+--> spill_dir/shard-NNNN.trc2
//
// Each shard installs thread-local obs scopes: the obs hooks fold into
// its CounterShard (plain uint64_ts — no cross-core cache-line ping-pong
// on fault.injected / os.ticks_fast_forwarded) and, with metrics_path
// set, its TimeSeriesShard bins. No Observer is needed for either, and
// run_fleet installs none: concurrent sweeps never see each other's
// telemetry. In spill mode each shard also owns a streaming v2 trace
// writer that appends finished machines' records to its own segment, so
// peak memory is O(shard block) instead of O(fleet).
//
// Determinism: the shard partition is a pure function of the config (not
// the thread count), every machine simulates on its own seeded substream,
// and shard-major/machine-major ordering is the TraceSet canonical order —
// so the merged trace is bit-identical to run_testbed() for any thread
// count, and segment files are byte-identical run to run.
//
// Crash tolerance (spill mode): each sealed shard also commits a durable
// checkpoint — a state blob next to its segment, plus a line in the
// directory's MANIFEST (fgcs::recover) — and `resume = true` re-runs only
// the shards whose checkpoints don't validate. Because shards are
// deterministic and their obs state is restored from the blobs, a resumed
// sweep's merged trace and metrics segment are byte-identical to an
// uninterrupted run's. Shard workers run under a supervisor: a machine
// that throws fails its shard's attempt, the attempt is retried with
// everything attempt-local discarded, and a machine that keeps failing is
// quarantined (excluded, counted, flight-recorder-dumped) so one poison
// machine degrades the sweep instead of sinking it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fgcs/core/testbed.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/trace/trace_set.hpp"

namespace fgcs::fleet {

/// Live progress counters for a running sweep. The caller allocates one,
/// points FleetConfig::progress at it, and polls from another thread
/// (e.g. the CLI's wall-clock progress monitor) while run_fleet executes.
/// All loads/stores are relaxed: the values are monotone counts for
/// display, not synchronization.
struct FleetProgress {
  explicit FleetProgress(std::size_t shard_count)
      : shard_machines_done(shard_count) {}

  std::atomic<std::uint64_t> machines_done{0};
  std::atomic<std::uint64_t> records{0};
  std::atomic<std::uint64_t> shards_completed{0};
  /// Per-shard machine completions — a stall watchdog compares snapshots
  /// to flag shards making no progress.
  std::vector<std::atomic<std::uint64_t>> shard_machines_done;
};

struct FleetConfig {
  /// The per-machine simulation: machines, days, seed, workload profile,
  /// detector policy, fault plan.
  core::TestbedConfig testbed;

  /// Worker threads for the sweep; 0 uses util::configured_thread_count()
  /// (the FGCS_THREADS environment variable, else hardware concurrency).
  std::size_t threads = 0;

  /// Directory receiving per-shard v2 trace segments. Empty runs
  /// in-memory (small fleets, tests): records are kept in a TraceSet on
  /// the result instead of spilled. The directory is created if missing.
  std::string spill_dir;

  /// Machines per shard; 0 derives a partition capped at kMaxShards
  /// shards. Must not depend on `threads` — the partition (and hence the
  /// segment files) is deterministic in the config alone.
  std::uint32_t shard_machines = 0;

  /// When non-empty, each shard also collects sim-time-binned series
  /// (obs::TimeSeriesShard) and the sweep writes one FGCSMET1 segment
  /// here: fleet totals first (unlabeled), then every shard's series
  /// under a {shard=NNNN} label plus fleet.shard_first_machine /
  /// fleet.shard_machines meta gauges. Byte-identical across same-seed
  /// runs for any thread count.
  std::string metrics_path;

  /// Bin width of the time-series collection (must be positive when
  /// metrics_path is set).
  sim::SimDuration metrics_resolution = sim::SimDuration::hours(1);

  /// Optional live progress sink. When non-null it must outlive
  /// run_fleet() and have been constructed with at least the sweep's
  /// shard count (see shard_count()).
  FleetProgress* progress = nullptr;

  /// Spill mode only: commit a durable checkpoint (segment CRC + state
  /// blob + MANIFEST line, see fgcs::recover) as each shard completes.
  /// Costs one small fsynced file and a manifest rewrite per shard.
  bool checkpoint = true;

  /// Validate spill_dir's checkpoint and skip every shard that proves
  /// complete; invalid or missing checkpoints run again. Requires
  /// spill_dir. A checkpoint from a different config (fingerprint
  /// mismatch) is an error, not a silent re-run.
  bool resume = false;

  /// Per-machine failure budget: when a machine has failed this many
  /// shard attempts it is quarantined (skipped, reported, flight-recorder
  /// dumped) instead of failing the sweep. Must be >= 1.
  int max_shard_retries = 2;

  /// Test seam: invoked before each machine's simulation with the
  /// machine id and the shard's attempt number (1-based). Throwing
  /// simulates a machine failure; the supervisor treats it exactly like
  /// a simulation fault. Must be thread-safe. Not part of determinism —
  /// production runs leave it empty.
  std::function<void(trace::MachineId, int)> machine_hook;

  void validate() const;

  /// The number of shards the partition produces.
  std::size_t shard_count() const;

  /// The effective machines-per-shard value (resolves the 0 default).
  std::uint32_t effective_shard_machines() const;
};

/// One shard's completed work.
struct ShardSummary {
  std::uint32_t first_machine = 0;
  std::uint32_t machine_count = 0;
  std::uint64_t records = 0;
  /// The shard's v2 segment (empty in in-memory mode).
  std::string segment_path;
  /// The shard's obs counters, collected whether or not an Observer is
  /// installed (and folded into the installed Observer, when any).
  obs::CounterShard counters;
  /// Attempts the supervisor had to discard before this shard succeeded.
  std::uint32_t retries = 0;
  /// Machines excluded from this shard after exhausting the retry budget
  /// (their records are absent from the segment).
  std::vector<trace::MachineId> quarantined;
  /// True when the shard was spliced from a validated checkpoint instead
  /// of simulated.
  bool resumed = false;
};

struct FleetResult {
  std::uint32_t machines = 0;
  int days = 0;
  sim::SimTime horizon_start;
  sim::SimTime horizon_end;
  std::uint64_t total_records = 0;
  bool spilled = false;
  std::vector<ShardSummary> shards;

  /// The FGCSMET1 segment written when FleetConfig::metrics_path was set
  /// (empty otherwise).
  std::string metrics_path;

  /// Shards restored from the checkpoint rather than simulated.
  std::size_t resumed_shards = 0;
  /// Attempts discarded across all shards (sum of ShardSummary::retries).
  std::uint64_t total_retries = 0;
  /// Every quarantined machine, fleet-wide, ascending.
  std::vector<trace::MachineId> quarantined;
  /// Human-readable reasons checkpointed shards were re-run (resume only).
  std::vector<std::string> resume_dropped;

  /// In-memory mode only (spilled == false).
  std::optional<trace::TraceSet> trace;

  std::uint64_t machine_days() const {
    return static_cast<std::uint64_t>(machines) *
           static_cast<std::uint64_t>(days);
  }

  /// Segment paths in shard (= machine) order; empty in in-memory mode.
  std::vector<std::string> segment_paths() const;

  /// Materializes the full fleet trace: returns the in-memory TraceSet,
  /// or streams every spilled segment (in shard order, so insertion is
  /// canonical and records() never re-sorts) into one. Spilled segments
  /// must still exist on disk.
  trace::TraceSet load_trace() const;
};

/// Runs the sharded fleet sweep. Deterministic in the config for any
/// thread count; bit-identical to core::run_testbed() on the same
/// testbed config.
FleetResult run_fleet(const FleetConfig& config);

}  // namespace fgcs::fleet
