#include "fgcs/core/testbed.hpp"

#include <algorithm>
#include <mutex>
#include <optional>

#include "fgcs/fault/injector.hpp"
#include "fgcs/monitor/detector.hpp"
#include "fgcs/monitor/machine_sampler.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/sim/simulation.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/parallel.hpp"

namespace fgcs::core {

void TestbedConfig::validate() const {
  fgcs::require(machines >= 1, "testbed needs at least one machine");
  fgcs::require(days >= 1, "testbed needs at least one day");
  profile.validate();
  policy.validate();
  fgcs::require(ram_mb > kernel_mb && kernel_mb >= 0,
                "invalid testbed memory sizes");
  faults.validate();
}

namespace {

/// Per-machine fault-injection state while walking: the live session plus
/// the dropout bookkeeping the sampling loop needs to report sensor gaps
/// once per dropout (not once per missed sample).
struct FaultRuntime {
  fault::MachineFaultSession session;
  bool dropped = false;
  sim::SimTime last_sample_time;

  FaultRuntime(const fault::FaultInjector& injector, trace::MachineId machine,
               sim::SimTime begin)
      : session(injector, machine), last_sample_time(begin) {}
};

/// Drives the detector over a machine's synthesized load, invoking
/// `on_sample(sample, state)` for every observation. Sampling runs as a
/// periodic task on a per-machine sim::Simulation — the same event loop
/// the iShare monitor tier uses — so the observability layer sees the
/// testbed's event execution, and each machine's trace events land on its
/// own track. `injector` (nullable) layers the config's fault plan on
/// top: crashes flip service_alive, dropouts swallow samples (reported to
/// the detector as sensor gaps), and clock-skew blips shift the reported
/// sample timestamps (kept monotone and inside the horizon).
template <typename OnSample>
monitor::UnavailabilityDetector walk_machine(
    const TestbedConfig& config, trace::MachineId machine,
    const fault::FaultInjector* injector, OnSample&& on_sample) {
  const auto load = workload::generate_machine_load(
      config.profile, config.seed, machine, config.days,
      static_cast<int>(config.start_dow));

  monitor::TrajectorySampler sampler(load, config.ram_mb, config.kernel_mb);
  monitor::UnavailabilityDetector detector(config.policy);

  const obs::TrackScope track(machine);
  const sim::SimTime begin = sim::SimTime::epoch();
  const sim::SimTime end = begin + sim::SimDuration::days(config.days);
  const sim::SimDuration period = config.policy.sample_period;

  sim::Simulation simulation;
  std::optional<FaultRuntime> fault_state;
  FaultRuntime* faults = nullptr;
  if (injector != nullptr) {
    fault_state.emplace(*injector, machine, begin);
    faults = &*fault_state;
    faults->session.schedule(simulation);
  }

  // Bundled so the periodic callback captures two pointers and stays
  // within the event queue's inline (allocation-free) budget.
  struct WalkLoop {
    monitor::TrajectorySampler& sampler;
    monitor::UnavailabilityDetector& detector;
    sim::Simulation& simulation;
    FaultRuntime* faults;
    sim::SimTime end;
    sim::SimDuration period;
  } loop{sampler, detector, simulation, faults, end, period};

  simulation.every(period, [&loop, &on_sample] {
    const sim::SimTime now = loop.simulation.now();
    FaultRuntime* const fr = loop.faults;
    if (fr != nullptr && fr->session.dropout_active()) {
      fr->dropped = true;  // sample lost; gap reported on resume
      return;
    }
    monitor::HostSample sample = loop.sampler.sample(now, loop.period);
    if (fr != nullptr) {
      if (fr->session.crash_active()) sample.service_alive = false;
      // The monitor reads current load but timestamps it with its skewed
      // clock; keep reported times monotone and inside the horizon. The
      // monotone clamp applies even when no skew is active right now: a
      // positive skew that just ended may have pushed last_sample_time
      // past this sample's raw time.
      if (fr->session.skew() != sim::SimDuration::zero()) {
        sample.time = now + fr->session.skew();
      }
      sample.time =
          std::min(loop.end, std::max(sample.time, fr->last_sample_time));
      if (fr->dropped) {
        // The gap must end exactly where observation resumes — in the
        // monitor's (possibly skewed) clock, not the simulation's —
        // or a negative skew would timestamp this sample before the
        // gap end. A gap the skew collapses to nothing is dropped.
        if (sample.time > fr->last_sample_time) {
          loop.detector.record_gap(fr->last_sample_time, sample.time);
        }
        fr->dropped = false;
      }
      fr->last_sample_time = sample.time;
    }
    const monitor::AvailabilityState state = loop.detector.observe(sample);
    on_sample(sample, state);
  });
  simulation.run_until(end);
  if (faults != nullptr && faults->dropped &&
      faults->last_sample_time < end) {
    detector.record_gap(faults->last_sample_time, end);
  }
  detector.finish(end);

  const std::uint64_t events = simulation.events_executed();
  obs::emit({end, obs::FlightEventKind::kMachineDone, machine,
             static_cast<std::int32_t>(detector.episodes().size()),
             static_cast<std::int32_t>(events), end - begin, events});
  return detector;
}

/// The columnar fast-path walk for fault-free configs.
///
/// The legacy walk above fires one simulation event per sample period
/// (5,760 per machine-day) and re-evaluates the trajectory cursor and
/// detector state machine each time. But the synthesized load is
/// piecewise-constant with segments far longer than the sample period,
/// so consecutive samples overwhelmingly carry identical inputs. This
/// walk iterates the *columns* directly — trajectory points and
/// downtimes, each with a monotone cursor — and hands every maximal run
/// of constant-input samples to observe_run in one call. Per sample
/// period the work drops from an event dispatch plus full sampler and
/// state-machine evaluation to amortized column arithmetic.
///
/// Equivalence with the legacy walk (checked end-to-end by the
/// soa-machine-step oracle):
///  * sample times are begin+period, ..., end — exactly the periodic
///    event times Simulation::every produces, since the horizon is a
///    whole multiple of the period;
///  * cpu/mem/alive per sample reproduce TrajectorySampler::sample
///    (same cursor advance rules, same free-memory expression);
///  * observe_run is bit-identical to per-sample observe();
///  * the obs batch mirrors the numbers the event loop would flush:
///    one live periodic event peak, total+1 schedules (the final fire
///    reschedules past the horizon), nothing spilled or cancelled.
monitor::UnavailabilityDetector walk_machine_columnar(
    const TestbedConfig& config, trace::MachineId machine,
    util::Arena& arena) {
  workload::ArenaLoadTrace load(&arena);
  workload::generate_machine_load_into(
      config.profile, config.seed, machine, config.days,
      static_cast<int>(config.start_dow), &arena, load);

  monitor::UnavailabilityDetector detector(config.policy, &arena);

  const obs::TrackScope track(machine);
  const sim::SimTime begin = sim::SimTime::epoch();
  const sim::SimTime end = begin + sim::SimDuration::days(config.days);
  const sim::SimDuration period = config.policy.sample_period;

  const std::int64_t period_us = period.as_micros();
  const std::int64_t begin_us = begin.as_micros();
  const std::int64_t end_us = end.as_micros();
  const auto total =
      static_cast<std::uint64_t>((end_us - begin_us) / period_us);

  const auto& pts = load.points;
  const auto& downs = load.downtimes;
  FGCS_ASSERT(!pts.empty());

  std::size_t pi = 0;  // invariant: pts[pi].t <= t (< pts[pi+1].t)
  std::size_t di = 0;  // first downtime not entirely before t
  std::uint64_t done = 0;
  std::int64_t t_us = begin_us + period_us;
  while (done < total) {
    const sim::SimTime t = sim::SimTime::from_micros(t_us);
    while (pi + 1 < pts.size() && pts[pi + 1].t <= t) ++pi;
    while (di < downs.size() &&
           downs[di].start + downs[di].duration <= t) {
      ++di;
    }
    // Downtimes cover [start, start+duration), matching
    // TrajectorySampler::in_downtime.
    const bool alive = !(di < downs.size() && downs[di].start <= t);

    // The instant any input changes: the next trajectory point, or the
    // near edge of the pending downtime.
    std::int64_t change_us = end_us + period_us;  // past the last sample
    if (pi + 1 < pts.size()) {
      change_us = std::min(change_us, pts[pi + 1].t.as_micros());
    }
    if (di < downs.size()) {
      const sim::SimTime edge =
          alive ? downs[di].start : downs[di].start + downs[di].duration;
      change_us = std::min(change_us, edge.as_micros());
    }
    // Samples at t, t+period, ... strictly before the change (cursors
    // guarantee change_us > t_us, so the run is never empty).
    auto run =
        static_cast<std::uint64_t>((change_us - t_us - 1) / period_us) + 1;
    if (run > total - done) run = total - done;

    const double host_mem = pts[pi].mem_mb;
    const double free_mem =
        std::max(0.0, config.ram_mb - config.kernel_mb - host_mem);
    detector.observe_run(t, period, run, pts[pi].cpu, free_mem, alive);
    done += run;
    t_us += period_us * static_cast<std::int64_t>(run);
  }
  detector.finish(end);

  obs::sim_batch({.begin = begin,
                  .end = end,
                  .executed = total,
                  .max_depth = 1.0,
                  .scheduled = total + 1});
  obs::emit({end, obs::FlightEventKind::kMachineDone, machine,
             static_cast<std::int32_t>(detector.episodes().size()),
             static_cast<std::int32_t>(total), end - begin, total});
  return detector;
}

void append_records(const monitor::UnavailabilityDetector& detector,
                    trace::MachineId machine,
                    std::vector<trace::UnavailabilityRecord>& out) {
  for (const auto& ep : detector.episodes()) {
    trace::UnavailabilityRecord r;
    r.machine = machine;
    r.start = ep.start;
    r.end = ep.end;
    r.cause = ep.cause;
    r.host_cpu = ep.host_cpu_at_start;
    r.free_mem_mb = ep.free_mem_at_start;
    out.push_back(r);
  }
}

/// Builds the testbed's fault injector when a plan is present.
std::optional<fault::FaultInjector> make_injector(const TestbedConfig& config) {
  if (config.faults.empty()) return std::nullopt;
  const sim::SimTime begin = sim::SimTime::epoch();
  return fault::FaultInjector(config.faults, config.seed, config.machines,
                              begin, begin + sim::SimDuration::days(config.days));
}

std::vector<trace::UnavailabilityRecord> records_from(
    const monitor::UnavailabilityDetector& detector,
    trace::MachineId machine) {
  std::vector<trace::UnavailabilityRecord> records;
  records.reserve(detector.episodes().size());
  append_records(detector, machine, records);
  return records;
}

}  // namespace

TestbedRunner::TestbedRunner(TestbedConfig config)
    : config_(std::move(config)) {
  config_.validate();
  injector_ = make_injector(config_);
}

std::vector<trace::UnavailabilityRecord> TestbedRunner::run(
    trace::MachineId machine) const {
  MachineScratch scratch;
  std::vector<trace::UnavailabilityRecord> records;
  run_into(machine, scratch, records);
  return records;
}

void TestbedRunner::run_into(
    trace::MachineId machine, MachineScratch& scratch,
    std::vector<trace::UnavailabilityRecord>& out) const {
  fgcs::require(machine < config_.machines, "machine id out of range");
  out.clear();
  if (injector_) {
    // Fault plans perturb individual samples (crashes, dropouts, skew);
    // batching buys nothing there, so they keep the event-loop walk.
    const auto detector = walk_machine(config_, machine, &*injector_,
                                       [](const auto&, auto) {});
    append_records(detector, machine, out);
    return;
  }
  scratch.arena.reset();
  const auto detector = walk_machine_columnar(config_, machine, scratch.arena);
  append_records(detector, machine, out);
}

std::vector<trace::UnavailabilityRecord> TestbedRunner::run_reference(
    trace::MachineId machine) const {
  fgcs::require(machine < config_.machines, "machine id out of range");
  const auto detector =
      walk_machine(config_, machine, injector_ ? &*injector_ : nullptr,
                   [](const auto&, auto) {});
  return records_from(detector, machine);
}

std::vector<trace::UnavailabilityRecord> run_testbed_machine(
    const TestbedConfig& config, trace::MachineId machine) {
  return TestbedRunner(config).run(machine);
}

TestbedMachineDetail run_testbed_machine_detailed(const TestbedConfig& config,
                                                  trace::MachineId machine) {
  config.validate();
  fgcs::require(machine < config.machines, "machine id out of range");
  const auto injector = make_injector(config);
  const auto detector = walk_machine(config, machine,
                                     injector ? &*injector : nullptr,
                                     [](const auto&, auto) {});
  TestbedMachineDetail detail;
  detail.records = records_from(detector, machine);
  detail.timeline = monitor::StateTimeline::from_detector(
      detector, sim::SimTime::epoch(),
      sim::SimTime::epoch() + sim::SimDuration::days(config.days));
  return detail;
}

CapacityProfile run_capacity_profile(const TestbedConfig& config) {
  FGCS_OBS_SCOPE("testbed/capacity_profile");
  config.validate();
  const trace::TraceCalendar calendar(config.start_dow);

  struct Acc {
    std::array<double, 24> cpu_sum{};
    std::array<double, 24> mem_sum{};
    std::array<double, 24> load_sum{};
    std::array<std::uint64_t, 24> n{};
    double cpu_total = 0.0;
    std::uint64_t usable = 0;
    std::uint64_t samples = 0;
  };
  std::vector<Acc> weekday_acc(config.machines), weekend_acc(config.machines);

  const auto injector = make_injector(config);
  const fault::FaultInjector* injector_ptr = injector ? &*injector : nullptr;
  util::parallel_for(config.machines, [&](std::size_t m) {
    walk_machine(
        config, static_cast<trace::MachineId>(m), injector_ptr,
        [&](const monitor::HostSample& sample,
            monitor::AvailabilityState state) {
          Acc& acc = calendar.is_weekend(sample.time)
                         ? weekend_acc[m]
                         : weekday_acc[m];
          const auto hour =
              static_cast<std::size_t>(calendar.hour_of_day(sample.time));
          const bool usable = !monitor::is_failure(state);
          const double cpu = usable ? 1.0 - sample.host_cpu : 0.0;
          acc.cpu_sum[hour] += cpu;
          acc.mem_sum[hour] += usable ? sample.free_mem_mb : 0.0;
          acc.load_sum[hour] += sample.host_cpu;
          acc.n[hour] += 1;
          acc.cpu_total += cpu;
          acc.usable += usable ? 1 : 0;
          acc.samples += 1;
        });
  });

  CapacityProfile out;
  double cpu_total = 0.0;
  std::uint64_t usable = 0, samples = 0;
  for (int h = 0; h < 24; ++h) {
    double wd_cpu = 0.0, wd_mem = 0.0, wd_load = 0.0;
    double we_cpu = 0.0, we_mem = 0.0, we_load = 0.0;
    std::uint64_t wd_n = 0, we_n = 0;
    for (std::uint32_t m = 0; m < config.machines; ++m) {
      const auto hh = static_cast<std::size_t>(h);
      wd_cpu += weekday_acc[m].cpu_sum[hh];
      wd_mem += weekday_acc[m].mem_sum[hh];
      wd_load += weekday_acc[m].load_sum[hh];
      wd_n += weekday_acc[m].n[hh];
      we_cpu += weekend_acc[m].cpu_sum[hh];
      we_mem += weekend_acc[m].mem_sum[hh];
      we_load += weekend_acc[m].load_sum[hh];
      we_n += weekend_acc[m].n[hh];
    }
    const auto hh = static_cast<std::size_t>(h);
    out.weekday_cpu[hh] = wd_n ? wd_cpu / static_cast<double>(wd_n) : 0.0;
    out.weekday_free_mem[hh] = wd_n ? wd_mem / static_cast<double>(wd_n) : 0.0;
    out.weekday_host_load[hh] = wd_n ? wd_load / static_cast<double>(wd_n) : 0.0;
    out.weekend_cpu[hh] = we_n ? we_cpu / static_cast<double>(we_n) : 0.0;
    out.weekend_free_mem[hh] = we_n ? we_mem / static_cast<double>(we_n) : 0.0;
    out.weekend_host_load[hh] = we_n ? we_load / static_cast<double>(we_n) : 0.0;
  }
  for (std::uint32_t m = 0; m < config.machines; ++m) {
    for (const auto* acc : {&weekday_acc[m], &weekend_acc[m]}) {
      cpu_total += acc->cpu_total;
      usable += acc->usable;
      samples += acc->samples;
    }
  }
  if (samples > 0) {
    out.overall_cpu = cpu_total / static_cast<double>(samples);
    out.overall_usable =
        static_cast<double>(usable) / static_cast<double>(samples);
  }
  return out;
}

trace::TraceSet run_testbed(const TestbedConfig& config) {
  FGCS_OBS_SCOPE("testbed/run");
  const TestbedRunner runner(config);
  trace::TraceSet trace(config.machines, runner.horizon_start(),
                        runner.horizon_end());

  std::vector<std::vector<trace::UnavailabilityRecord>> per_machine(
      config.machines);
  util::parallel_for(config.machines, [&](std::size_t m) {
    per_machine[m] = runner.run(static_cast<trace::MachineId>(m));
  });
  std::size_t total = 0;
  for (const auto& records : per_machine) total += records.size();
  trace.reserve(total);
  // Machine-major insertion is the canonical order: records() stays O(1),
  // no re-sort.
  for (const auto& records : per_machine) {
    for (const auto& r : records) trace.add(r);
  }
  return trace;
}

}  // namespace fgcs::core
