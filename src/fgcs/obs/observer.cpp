#include "fgcs/obs/observer.hpp"

#include <algorithm>
#include <cstdio>
#include <new>

#include "fgcs/util/error.hpp"

namespace fgcs::obs {

#define FGCS_FIELD(name) offsetof(CounterShard, name)

namespace {

template <typename T>
T& field(CounterShard& shard, std::size_t offset) {
  return *std::launder(
      reinterpret_cast<T*>(reinterpret_cast<unsigned char*>(&shard) + offset));
}

template <typename T>
T field(const CounterShard& shard, std::size_t offset) {
  return field<T>(const_cast<CounterShard&>(shard), offset);
}

/// Adds `n` to the CounterShard field at byte `offset` of the calling
/// thread's shard or, without one, of the installed Observer's registry.
void add(std::size_t offset, std::uint64_t n) {
  if (CounterShard* s = current_shard()) {
    field<std::uint64_t>(*s, offset) += n;
  } else if (Observer* o = observer(); o != nullptr && n > 0) {
    o->field_counter(offset).inc(n);
  }
}

/// Raises the max-gauge CounterShard field at `offset`, like add().
void raise(std::size_t offset, double v) {
  if (CounterShard* s = current_shard()) {
    double& level = field<double>(*s, offset);
    level = std::max(level, v);
  } else if (Observer* o = observer()) {
    o->field_gauge(offset).set_max(v);
  }
}

// The 25 "Sa->Sb" edge names, so tracing a transition never formats.
const char* transition_name(int from, int to) {
  static const char* const kNames[kStateCount][kStateCount] = {
      {"S1->S1", "S1->S2", "S1->S3", "S1->S4", "S1->S5"},
      {"S2->S1", "S2->S2", "S2->S3", "S2->S4", "S2->S5"},
      {"S3->S1", "S3->S2", "S3->S3", "S3->S4", "S3->S5"},
      {"S4->S1", "S4->S2", "S4->S3", "S4->S4", "S4->S5"},
      {"S5->S1", "S5->S2", "S5->S3", "S5->S4", "S5->S5"}};
  const bool valid = from >= 1 && from <= kStateCount && to >= 1 &&
                     to <= kStateCount;
  return valid ? kNames[from - 1][to - 1] : "S?->S?";
}

// Events no surface would record; see emit().
bool dropped(const FlightEvent& e) {
  switch (e.kind) {
    case FlightEventKind::kStateTransition:
      return e.a < 1 || e.a > kStateCount || e.b < 1 || e.b > kStateCount;
    case FlightEventKind::kFaultInjected:
      return e.a < 0 || e.a >= kFaultKindCount;
    case FlightEventKind::kGuestWorkLost:
      return e.dur <= sim::SimDuration::zero();
    case FlightEventKind::kServeQueries:
      return e.count == 0;
    default:
      return false;
  }
}

std::size_t fault_field(int kind) {
  return FGCS_FIELD(fault_injected) + sizeof(std::uint64_t) * kind;
}

std::size_t transition_field(int from, int to) {
  return FGCS_FIELD(detector_transitions) +
         sizeof(std::uint64_t) * ((from - 1) * kStateCount + (to - 1));
}

// Folds `e` into the CounterShard fields it counts, via add().
void count(const FlightEvent& e) {
  switch (e.kind) {
    case FlightEventKind::kStateTransition:
      return add(transition_field(e.a, e.b), 1);
    case FlightEventKind::kFaultInjected:
      return add(fault_field(e.a), 1);
    case FlightEventKind::kEpisodeOpened:
      return add(FGCS_FIELD(detector_episodes_opened), 1);
    case FlightEventKind::kEpisodeClosed:
      return add(FGCS_FIELD(detector_episodes_closed), 1);
    case FlightEventKind::kSensorGap:
      add(FGCS_FIELD(detector_sensor_gaps), 1);
      return add(FGCS_FIELD(detector_sensor_gap_us),
                 static_cast<std::uint64_t>(e.dur.as_micros()));
    case FlightEventKind::kMachineDone:
      return add(FGCS_FIELD(testbed_machines), 1);
    case FlightEventKind::kServeIngest:
      return add(FGCS_FIELD(serve_ingest_events), 1);
    case FlightEventKind::kServeQueries:
      return add(FGCS_FIELD(serve_queries), e.count);
    case FlightEventKind::kSnapshotSwap:
      return add(FGCS_FIELD(serve_snapshot_swaps), 1);
    default:
      return;  // guest and fleet events count in the registry only
  }
}

constinit thread_local std::uint32_t t_current_track = 0;

/// The registry series of one CounterShard field.
struct CounterSeries {
  std::size_t offset;  // byte offset of the field in CounterShard
  std::string name;
  Labels labels;
  bool max_gauge;  // a double high-water mark; otherwise a uint64 count
};

/// One entry per CounterShard field, in layout order: Observer
/// registration, merge_shard() and the hooks' registry fallback (through
/// the per-field series the Observer registers) all read this table.
const std::vector<CounterSeries>& counter_series() {
  static const std::vector<CounterSeries> table = [] {
    std::vector<CounterSeries> t;
    const auto row = [&t](std::size_t offset, const char* name,
                          Labels labels = {}, bool max_gauge = false) {
      t.push_back({offset, name, std::move(labels), max_gauge});
    };
    row(FGCS_FIELD(sim_events_executed), "sim.events_executed");
    row(FGCS_FIELD(sim_events_scheduled), "sim.events_scheduled");
    row(FGCS_FIELD(sim_events_cancelled), "sim.events_cancelled");
    row(FGCS_FIELD(sim_events_compacted), "sim.events_compacted");
    row(FGCS_FIELD(sim_compactions), "sim.queue_compactions");
    row(FGCS_FIELD(sim_callbacks_spilled), "sim.callbacks_spilled");
    row(FGCS_FIELD(sim_max_queue_depth), "sim.max_queue_depth", {}, true);
    for (int k = 0; k < kFaultKindCount; ++k) {
      row(fault_field(k), "fault.injected", {{"kind", fault_kind_name(k)}});
    }
    row(FGCS_FIELD(detector_samples), "detector.samples");
    row(FGCS_FIELD(detector_sensor_gaps), "detector.sensor_gaps");
    row(FGCS_FIELD(detector_sensor_gap_us), "detector.sensor_gap_us");
    for (int f = 1; f <= kStateCount; ++f) {
      for (int to = 1; to <= kStateCount; ++to) {
        row(transition_field(f, to), "detector.transitions",
            {{"from", state_name(f)}, {"to", state_name(to)}});
      }
    }
    row(FGCS_FIELD(detector_episodes_opened), "detector.episodes_opened");
    row(FGCS_FIELD(detector_episodes_closed), "detector.episodes_closed");
    row(FGCS_FIELD(os_ticks), "os.scheduler_ticks");
    row(FGCS_FIELD(os_ticks_fast_forwarded), "os.ticks_fast_forwarded");
    row(FGCS_FIELD(os_context_switches), "os.context_switches");
    row(FGCS_FIELD(os_max_runnable), "os.max_runnable", {}, true);
    row(FGCS_FIELD(testbed_machines), "testbed.machines_simulated");
    row(FGCS_FIELD(serve_ingest_events), "serve.ingest_events");
    row(FGCS_FIELD(serve_queries), "serve.queries");
    row(FGCS_FIELD(serve_snapshot_swaps), "serve.snapshot_swaps");
    // Every 8-byte word of CounterShard is one entry, in order.
    for (std::size_t i = 0; i < t.size(); ++i) {
      FGCS_ASSERT(t[i].offset == 8 * i);
    }
    FGCS_ASSERT(t.size() * 8 == sizeof(CounterShard));
    return t;
  }();
  return table;
}

}  // namespace

Observer::Observer(const Options& options)
    : trace_(options.trace_capacity), trace_enabled_(options.enable_trace) {
  for (const CounterSeries& s : counter_series()) {
    if (s.max_gauge) {
      gauges_[s.offset / 8] = &metrics_.gauge(s.name, s.labels);
    } else {
      counters_[s.offset / 8] = &metrics_.counter(s.name, s.labels);
    }
  }
  static constexpr std::pair<FlightEventKind, const char*> kEventSeries[] = {
      {FlightEventKind::kGuestCheckpoint, "guest.checkpoints"},
      {FlightEventKind::kGuestRestart, "guest.restarts"},
      {FlightEventKind::kGuestMigration, "guest.migrations"},
      {FlightEventKind::kGuestCompleted, "guest.completions"},
      {FlightEventKind::kGuestWorkLost, "guest.work_lost_us"},
      {FlightEventKind::kShardDone, "fleet.shards_completed"},
      {FlightEventKind::kShardRetry, "fleet.shard_retries"},
      {FlightEventKind::kMachineQuarantined, "fleet.machines_quarantined"},
  };
  for (const auto& [kind, name] : kEventSeries) {
    event_counters_[static_cast<int>(kind)] = &metrics_.counter(name);
  }
  fleet_machines_done_ = &metrics_.counter("fleet.machines_done");
}

void Observer::record(const FlightEvent& e) {
  if (Counter* c = event_counters_[static_cast<int>(e.kind)]) {
    c->inc(e.kind == FlightEventKind::kGuestWorkLost
               ? static_cast<std::uint64_t>(e.dur.as_micros())
               : 1);
  }
  if (flight_ != nullptr && e.kind < FlightEventKind::kSimRun) {
    flight_->record(e);
  }
  if (sink_ != nullptr && (e.kind == FlightEventKind::kEpisodeOpened ||
                           e.kind == FlightEventKind::kEpisodeClosed)) {
    sink_->on_flight_event(e);
  }
  if (!trace_enabled_) return;
  char args[96];
  switch (e.kind) {
    case FlightEventKind::kSimRun:
      std::snprintf(args, sizeof args, "\"events\":%llu",
                    static_cast<unsigned long long>(e.count));
      trace_.complete("sim", e.a != 0 ? "run_all" : "run_until", e.at, e.dur,
                      e.machine, args);
      break;
    case FlightEventKind::kFaultInjected:
      trace_.complete("fault", fault_kind_name(e.a), e.at, e.dur, e.machine);
      break;
    case FlightEventKind::kSensorGap:
      trace_.complete("detector", "sensor_gap", e.at, e.dur, e.machine);
      break;
    case FlightEventKind::kStateTransition:
      trace_.instant("detector", transition_name(e.a, e.b), e.at, e.machine);
      break;
    case FlightEventKind::kEpisodeOpened:
      std::snprintf(args, sizeof args,
                    "\"cause\":\"%s\",\"host_cpu\":%.4f,\"free_mem_mb\":%.1f",
                    state_name(e.a), e.host_cpu, e.free_mem_mb);
      trace_.instant("detector", "episode_open", e.at, e.machine, args);
      break;
    case FlightEventKind::kEpisodeClosed:
      std::snprintf(args, sizeof args, "\"cause\":\"%s\",\"duration_s\":%.1f",
                    state_name(e.a), e.dur.as_seconds());
      trace_.instant("detector", "episode_close", e.at, e.machine, args);
      // Render the episode itself as a span so unavailability shows up as
      // solid blocks on the machine's track.
      trace_.complete("detector", state_name(e.a), e.at - e.dur, e.dur,
                      e.machine);
      break;
    case FlightEventKind::kMachineDone: {
      char name[32];
      std::snprintf(name, sizeof name, "machine-%u", e.machine);
      trace_.name_track(e.machine, name);
      std::snprintf(args, sizeof args, "\"episodes\":%d,\"samples\":%llu",
                    e.a, static_cast<unsigned long long>(e.count));
      trace_.complete("testbed", "simulate_machine", e.at - e.dur, e.dur,
                      e.machine, args);
      break;
    }
    default:
      break;  // guest, fleet and serve events are not traced
  }
}

void Observer::on_fleet_shard_done(std::size_t shard,
                                   std::uint32_t first_machine,
                                   std::size_t machine_count,
                                   sim::SimTime at) {
  record({at, FlightEventKind::kShardDone, static_cast<std::uint32_t>(shard),
          static_cast<std::int32_t>(first_machine),
          static_cast<std::int32_t>(machine_count)});
}

void Observer::record_scope(std::string_view name, double seconds) {
  metrics_
      .histogram("scope.seconds", {{"scope", std::string(name)}})
      .observe(seconds);
}

void Observer::merge_shard(const CounterShard& shard) {
  for (const CounterSeries& s : counter_series()) {
    if (s.max_gauge) {
      gauges_[s.offset / 8]->set_max(field<double>(shard, s.offset));
    } else if (const auto n = field<std::uint64_t>(shard, s.offset)) {
      counters_[s.offset / 8]->inc(n);
    }
  }
}

void detail::emit(const FlightEvent& e) {
  if (dropped(e)) return;
  if (TimeSeriesShard* ts = current_ts_shard()) ts->record(e);
  count(e);
  if (Observer* o = observer()) o->record(e);
}

void scheduler_ticks(bool switched, std::size_t runnable,
                     std::uint64_t skipped) {
  if (current_shard() == nullptr && observer() == nullptr) return;
  add(FGCS_FIELD(os_ticks), 1);
  if (switched) add(FGCS_FIELD(os_context_switches), 1);
  if (skipped > 0) add(FGCS_FIELD(os_ticks_fast_forwarded), skipped);
  raise(FGCS_FIELD(os_max_runnable), static_cast<double>(runnable));
}

void sim_batch(const SimBatch& b) {
  add(FGCS_FIELD(sim_events_executed), b.executed);
  add(FGCS_FIELD(sim_events_scheduled), b.scheduled);
  add(FGCS_FIELD(sim_callbacks_spilled), b.spilled);
  add(FGCS_FIELD(sim_events_cancelled), b.cancelled);
  add(FGCS_FIELD(sim_compactions), b.compactions);
  add(FGCS_FIELD(sim_events_compacted), b.compacted);
  raise(FGCS_FIELD(sim_max_queue_depth), b.max_depth);
  if (b.executed == 0) return;
  if (Observer* o = observer()) {
    o->record({b.begin, FlightEventKind::kSimRun, current_track(),
               b.run_all ? 1 : 0, 0, b.end - b.begin, b.executed});
  }
}

#undef FGCS_FIELD

namespace detail {
std::atomic<Observer*> g_observer{nullptr};
constinit thread_local CounterShard* t_shard = nullptr;
}  // namespace detail

void set_observer(Observer* observer) {
  detail::g_observer.store(observer, std::memory_order_release);
}

ShardScope::ShardScope(CounterShard* shard) : previous_(detail::t_shard) {
  detail::t_shard = shard;
}

ShardScope::~ShardScope() { detail::t_shard = previous_; }

std::uint32_t current_track() { return t_current_track; }

TrackScope::TrackScope(std::uint32_t track) : previous_(t_current_track) {
  t_current_track = track;
}

TrackScope::~TrackScope() { t_current_track = previous_; }

}  // namespace fgcs::obs
