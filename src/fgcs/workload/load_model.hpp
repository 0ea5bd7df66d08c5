// Host-load model for the testbed predictability study (§5).
//
// The paper traced 20 student-lab machines for three months. We do not
// have the lab; instead, each machine's *host load process* — aggregate
// host CPU usage L_H(t) and host memory usage M_H(t) — is synthesized as a
// piecewise-constant trajectory from a LabProfile:
//
//   * a diurnal background load (students' light activity, system daemons),
//   * heavy CPU episodes (compile/test sessions pushing L_H above Th2),
//     placed by a stratified non-homogeneous process over the hourly
//     profile, optionally "choppy" (brief dips that produce the paper's
//     <5 min availability gaps, §5.2),
//   * memory episodes (IDE/desktop apps exhausting free memory -> S4),
//   * the 4 AM updatedb cron job: 30 minutes of high system CPU on every
//     machine, every day (the paper's 4-5 AM spike of exactly 20, §5.3),
//   * URR downtimes: owner reboots (~90%, < 1 min) and rare hardware/
//     software failures (longer), §5.1.
//
// The availability *detector* (fgcs::monitor) then runs over samples of
// these trajectories exactly as the iShare resource monitor ran over
// vmstat output; nothing in this module decides what counts as
// unavailability.
//
// Synthesis streams by day. Each day draws from its own keyed RNG stream
// and adds its intervals to a LoadOverlay, which then sweeps every delta
// earlier than that day's start into trajectory points. Lagging one day
// keeps this exact: only a memory episode attached to a CPU episode's
// tail starts before its own day, and by at most 0.6 x 240 min (~2.4 h).
// Deltas that share a timestamp are summed in insertion order, so the
// points are bit-identical to one stable sweep over the whole horizon,
// while the pending deltas never exceed about two days' worth.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fgcs/sim/time.hpp"
#include "fgcs/util/arena.hpp"
#include "fgcs/util/rng.hpp"

namespace fgcs::workload {

/// Piecewise-constant host-load trajectory: value_i holds on [t_i, t_{i+1}).
struct LoadPoint {
  sim::SimTime t;
  double cpu;     // host CPU usage in [0, 1]
  double mem_mb;  // host memory usage (resident), MB
};

class LoadTrajectory {
 public:
  LoadTrajectory() = default;
  /// Points must be sorted by time (validated); first point defines t0.
  explicit LoadTrajectory(std::vector<LoadPoint> points);

  const std::vector<LoadPoint>& points() const { return points_; }
  bool empty() const { return points_.empty(); }

  /// Value lookup by binary search. Times before the first point return
  /// the first point's value.
  double cpu_at(sim::SimTime t) const;
  double mem_at(sim::SimTime t) const;

  /// Monotone forward iteration for samplers (amortized O(1) per step).
  class Cursor {
   public:
    explicit Cursor(const LoadTrajectory& traj) : traj_(&traj) {}
    /// Advances to `t` (must be non-decreasing across calls).
    const LoadPoint& at(sim::SimTime t);

   private:
    const LoadTrajectory* traj_;
    std::size_t index_ = 0;
  };

 private:
  std::size_t index_for(sim::SimTime t) const;
  std::vector<LoadPoint> points_;
};

/// Accumulates overlapping CPU/memory contributions and sweeps them into
/// a merged trajectory (CPU capped at 1.0), either all at once or
/// incrementally, a window at a time.
///
/// Every interval becomes two deltas (+load at its start, -load at its
/// end). The sweep visits deltas in time order; deltas that share a
/// timestamp are summed in insertion order, which makes the trajectory's
/// bits independent of any sort's internals. flush_before(cut) sweeps the
/// pending deltas earlier than `cut`; the ones at or after it wait for a
/// later flush, so flushing in steps yields exactly the points of one
/// build. An add that starts before the last cut would land in a window
/// already swept and is rejected (ConfigError).
///
/// No sort spans more than what is pending: runs that arrive in time
/// order (back-to-back segments) are detected and merged stably, so a
/// caller that adds one window's intervals and then flushes pays O(window)
/// per step.
class LoadOverlay {
 public:
  /// The trajectory starts at `origin` with zero load; deltas at or
  /// before it fold into that first point. With a non-null arena, all
  /// internal storage bump-allocates from it.
  explicit LoadOverlay(sim::SimTime origin = sim::SimTime::epoch(),
                       util::Arena* arena = nullptr)
      : origin_(origin),
        pending_(util::ArenaAllocator<Delta>(arena)),
        scratch_(util::ArenaAllocator<Delta>(arena)),
        runs_(util::ArenaAllocator<std::size_t>(arena)) {}

  /// Adds `cpu` load over [start, end).
  void add_cpu(sim::SimTime start, sim::SimTime end, double cpu);
  /// Adds `mem_mb` of host memory over [start, end).
  void add_mem(sim::SimTime start, sim::SimTime end, double mem_mb);

  /// Sweeps every pending delta earlier than `cut` into `out`, appending
  /// points strictly increasing in time. An empty `out` first gets the
  /// origin point. Later adds must start at or after `cut`.
  void flush_before(sim::SimTime cut, util::ArenaVector<LoadPoint>& out);

  /// Flushes everything (the one-shot sweep); no add may follow.
  void build_into(util::ArenaVector<LoadPoint>& out);
  LoadTrajectory build();

  util::Arena* arena() const { return pending_.get_allocator().arena(); }

 private:
  struct Delta {
    sim::SimTime t;
    double cpu;
    double mem;
  };

  void add(sim::SimTime start, sim::SimTime end, double cpu, double mem);
  /// Stably sorts pending_ by time: the already-sorted prefix is one
  /// run, the rest splits into maximal in-order runs.
  void sort_pending();
  /// Stably merges the adjacent sorted runs [lo, mid) and [mid, hi).
  void merge(std::size_t lo, std::size_t mid, std::size_t hi);
  /// Sweeps the first `count` (sorted) pending deltas into `out`.
  void sweep(std::size_t count, util::ArenaVector<LoadPoint>& out);

  sim::SimTime origin_;
  sim::SimTime cut_ = sim::SimTime::from_micros(INT64_MIN);
  double cpu_ = 0.0;  // running sums over every swept delta
  double mem_ = 0.0;
  /// [0, sorted_) in sweep order; the rest in insertion order.
  util::ArenaVector<Delta> pending_;
  std::size_t sorted_ = 0;
  util::ArenaVector<Delta> scratch_;     // merge buffer
  util::ArenaVector<std::size_t> runs_;  // run starts, for sort_pending
};

/// A URR downtime event (owner reboot or hardware/software failure).
struct Downtime {
  sim::SimTime start;
  sim::SimDuration duration;
  bool is_reboot;  // true: intentional revocation; false: failure
};

/// Hour-of-day rates, split by day class.
struct HourlyRates {
  std::array<double, 24> weekday{};
  std::array<double, 24> weekend{};

  double daily_total(bool weekend_day) const;
};

/// Day-of-week helper: day 0 has day-of-week `start_dow` (0 = Monday).
/// Saturday/Sunday (5, 6) are weekend days. The paper's trace starts
/// Monday, August 15, 2005.
bool is_weekend_day(int day_index, int start_dow = 0);

/// Calibratable description of a testbed machine's host workload.
struct LabProfile {
  // -- heavy CPU episodes (drive S3) --------------------------------------
  HourlyRates cpu_episode_rate;                 // episodes/hour
  double cpu_episode_mean_minutes = 45.0;       // lognormal mean
  double cpu_episode_sigma_log = 0.50;          // lognormal shape
  double cpu_episode_load_lo = 0.72;
  double cpu_episode_load_hi = 1.00;
  /// Probability an episode is choppy (contains short sub-threshold dips).
  double choppy_probability = 0.30;
  int choppy_dips_max = 2;
  double choppy_dip_min_minutes = 1.2;
  double choppy_dip_max_minutes = 4.0;

  // -- memory episodes (drive S4) ------------------------------------------
  HourlyRates mem_episode_rate;
  double mem_episode_mean_minutes = 22.0;
  double mem_episode_sigma_log = 0.45;
  double mem_episode_mb_lo = 600.0;
  double mem_episode_mb_hi = 850.0;
  /// Probability a memory episode belongs to the same heavy-use session as
  /// a CPU episode and overlaps its tail (the IDE session that both
  /// compiles and bloats memory). The rest are placed independently.
  double mem_attach_probability = 0.70;

  // -- transient spikes (absorbed by the 1-minute suspend rule, §4) --------
  /// "We find it very common that the host CPU load which exceeds Th2 will
  /// drop down shortly after several seconds" — remote X clients, system
  /// processes. These never become S3 under the paper's 1-minute rule but
  /// dominate occurrences if the sustain window is removed.
  double spike_rate_per_day = 8.0;
  double spike_min_seconds = 8.0;
  double spike_max_seconds = 40.0;
  double spike_load = 0.85;

  // -- busy-but-usable periods (S2-level load) ------------------------------
  /// Moderate load episodes between Th1 and Th2: the machine is busy, the
  /// guest runs reniced, no failure. They matter for the Th2-sensitivity
  /// ablation (a mis-calibrated lower Th2 reclassifies them as S3).
  HourlyRates busy_episode_rate;
  double busy_episode_mean_minutes = 45.0;
  double busy_episode_sigma_log = 0.4;
  double busy_episode_load_lo = 0.38;
  double busy_episode_load_hi = 0.56;

  // -- diurnal background ---------------------------------------------------
  std::array<double, 24> base_load_weekday{};
  std::array<double, 24> base_load_weekend{};
  /// Background jitter amplitude; resampled every base_noise_period.
  double base_noise = 0.06;
  sim::SimDuration base_noise_period = sim::SimDuration::minutes(5);
  double base_mem_lo = 120.0;
  double base_mem_hi = 280.0;

  // -- updatedb cron (system process, counted as host by the monitor) ------
  bool updatedb_enabled = true;
  int updatedb_hour = 4;
  double updatedb_minutes = 30.0;
  double updatedb_load = 0.92;

  // -- URR ------------------------------------------------------------------
  double reboot_rate_per_day = 0.075;
  double failure_rate_per_day = 0.008;
  double reboot_downtime_s_lo = 20.0;
  double reboot_downtime_s_hi = 50.0;
  double failure_downtime_mean_hours = 2.0;

  /// Calibrated to reproduce the paper's Purdue lab statistics
  /// (Table 2, Figures 6 and 7).
  static LabProfile purdue_lab();

  /// The paper's proposed future-work testbed: enterprise desktops
  /// (9-to-5 usage, no updatedb spike at 4 AM, fewer reboots).
  static LabProfile enterprise_desktop();

  void validate() const;
};

/// Synthesized host behavior of one machine over the trace horizon.
struct MachineLoadTrace {
  LoadTrajectory load;
  std::vector<Downtime> downtimes;  // sorted by start, non-overlapping
};

/// Synthesized host behavior of one machine, arena-backed: the columnar
/// testbed walk reads the raw point/downtime columns directly, and every
/// byte lives in the caller's arena (or the heap when none is given).
struct ArenaLoadTrace {
  explicit ArenaLoadTrace(util::Arena* arena)
      : points(util::ArenaAllocator<LoadPoint>(arena)),
        downtimes(util::ArenaAllocator<Downtime>(arena)) {}

  /// Strictly increasing in time; value_i holds on [t_i, t_{i+1}).
  util::ArenaVector<LoadPoint> points;
  /// Sorted by start, non-overlapping.
  util::ArenaVector<Downtime> downtimes;
};

/// Generates machine `machine_id`'s load trace for `days` days.
/// Deterministic in (profile, seed, machine_id).
MachineLoadTrace generate_machine_load(const LabProfile& profile,
                                       std::uint64_t seed,
                                       std::uint32_t machine_id, int days,
                                       int start_dow = 0);

/// The generation core the wrapper above delegates to: identical values
/// (same RNG draw order, same arithmetic), but all transient and output
/// storage draws from `arena` and the profile is NOT re-validated —
/// callers on the per-machine hot path validate once up front. It flushes
/// the overlay day by day (see the top of this file), so transient
/// storage is O(day) and the output points O(horizon). With a warmed-up
/// arena this performs zero heap allocations.
void generate_machine_load_into(const LabProfile& profile, std::uint64_t seed,
                                std::uint32_t machine_id, int days,
                                int start_dow, util::Arena* arena,
                                ArenaLoadTrace& out);

}  // namespace fgcs::workload
