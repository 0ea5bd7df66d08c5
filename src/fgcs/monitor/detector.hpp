// Non-intrusive unavailability detection (§3, §4).
//
// The detector consumes periodic host-resource samples — exactly what the
// iShare monitor obtained from vmstat/prstat — and runs the five-state
// model:
//
//   * service not alive                      -> S5 (URR)
//   * free memory < guest working set        -> S4 (immediate)
//   * host CPU > Th2 sustained >= 1 minute   -> S3 (the guest is only
//     suspended during the first minute; short spikes are common, §4)
//   * Th1 <= host CPU <= Th2                 -> S2 (guest reniced)
//   * host CPU < Th1                         -> S1
//
// Each entry into S3/S4/S5 is one *unavailability occurrence*; the episode
// ends when the condition clears, and the next availability interval
// begins there.
#pragma once

#include <cstdint>
#include <span>

#include "fgcs/monitor/availability.hpp"
#include "fgcs/monitor/policy.hpp"
#include "fgcs/sim/time.hpp"
#include "fgcs/util/arena.hpp"

namespace fgcs::monitor {

/// One observation of host-side resources (what the monitor can see
/// without special privileges).
struct HostSample {
  sim::SimTime time;
  /// Aggregate CPU usage of all host (and system) processes, in [0, 1].
  double host_cpu = 0.0;
  /// Free physical memory available to a guest, MB.
  double free_mem_mb = 0.0;
  /// FGCS service liveness; false means the machine is revoked/down.
  bool service_alive = true;
};

/// A state-machine transition, recorded at sample granularity.
struct Transition {
  sim::SimTime time;
  AvailabilityState from;
  AvailabilityState to;
};

/// A period with no sensor data (sampler dropout, monitor restart). The
/// detector holds `held` across it rather than fabricating fresh S1.
struct SensorGap {
  sim::SimTime start;
  sim::SimTime end;
  AvailabilityState held;

  sim::SimDuration duration() const { return end - start; }
};

/// One unavailability episode (occurrence + duration + cause).
struct UnavailabilityEpisode {
  sim::SimTime start;
  sim::SimTime end;  // == start while still open
  AvailabilityState cause;
  /// Host CPU load and free memory observed when the episode began
  /// (the trace's "available CPU and memory for guest jobs", §5).
  double host_cpu_at_start = 0.0;
  double free_mem_at_start = 0.0;
  bool open = true;

  sim::SimDuration duration() const { return end - start; }
};

class UnavailabilityDetector {
 public:
  /// With a non-null `arena`, the transition/episode/gap records draw
  /// from it instead of the heap (the span accessors are unchanged) —
  /// the fleet engine hands each machine's detector its shard arena so
  /// a warmed-up machine-day allocates nothing.
  explicit UnavailabilityDetector(ThresholdPolicy policy,
                                  util::Arena* arena = nullptr);

  /// Processes one sample (times must be non-decreasing) and returns the
  /// state after it. Out-of-range CPU/memory readings are clamped (real
  /// vmstat output can momentarily exceed bounds); NaNs are rejected.
  AvailabilityState observe(HostSample sample);

  /// Batched observe(): processes `count` samples at t0, t0+stride, ...,
  /// all sharing one (cpu, mem, alive) reading — the fast path for
  /// piecewise-constant load trajectories, where a run of thousands of
  /// identical samples produces at most two transitions (an intermediate
  /// S1/S2 hold and the sustain-window S3 crossing). State, transitions,
  /// episodes, telemetry counts, and bins are bit-identical to `count`
  /// scalar observe() calls.
  AvailabilityState observe_run(sim::SimTime t0, sim::SimDuration stride,
                                std::uint64_t count, double host_cpu,
                                double free_mem_mb, bool service_alive);

  /// Current model state.
  AvailabilityState state() const { return state_; }

  /// True while host CPU is above Th2 but the sustain window has not
  /// elapsed — the guest should be *suspended*, not killed (§4).
  bool transient_high() const { return high_since_valid_ && !is_failure(state_); }

  /// Declares that no samples arrived over [start, end): the model holds
  /// its current state across the gap (the last observation remains the
  /// best evidence — a silent sensor is not an idle machine), and any
  /// in-progress sustained-high-CPU evidence is discarded, since the gap
  /// interrupts it. `start` must be >= the last sample time; subsequent
  /// samples must not precede `end`.
  void record_gap(sim::SimTime start, sim::SimTime end);

  /// Closes any open episode at `end` (end-of-trace bookkeeping).
  void finish(sim::SimTime end);

  std::span<const Transition> transitions() const { return transitions_; }
  std::span<const UnavailabilityEpisode> episodes() const { return episodes_; }
  std::span<const SensorGap> gaps() const { return gaps_; }

  const ThresholdPolicy& policy() const { return policy_; }

 private:
  void enter(AvailabilityState next, sim::SimTime when,
             const HostSample& sample);

  ThresholdPolicy policy_;
  AvailabilityState state_ = AvailabilityState::kS1FullAvailability;
  bool saw_sample_ = false;
  sim::SimTime last_time_ = sim::SimTime::epoch();

  // Sustained-high-CPU tracking.
  bool high_since_valid_ = false;
  sim::SimTime high_since_ = sim::SimTime::epoch();

  util::ArenaVector<Transition> transitions_;
  util::ArenaVector<UnavailabilityEpisode> episodes_;
  util::ArenaVector<SensorGap> gaps_;
};

}  // namespace fgcs::monitor
