#include "fgcs/os/machine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "fgcs/obs/observer.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::os {

double CpuTotals::host_usage(const CpuTotals& earlier, const CpuTotals& later) {
  const sim::SimDuration wall = later.total() - earlier.total();
  if (wall <= sim::SimDuration::zero()) return 0.0;
  const sim::SimDuration host_cpu =
      (later.host - earlier.host) + (later.system - earlier.system);
  return host_cpu / wall;
}

double CpuTotals::guest_usage(const CpuTotals& earlier,
                              const CpuTotals& later) {
  const sim::SimDuration wall = later.total() - earlier.total();
  if (wall <= sim::SimDuration::zero()) return 0.0;
  return (later.guest - earlier.guest) / wall;
}

Machine::Machine(SchedulerParams sched, MemoryParams mem, std::uint64_t seed)
    : sched_(std::move(sched)), mem_(mem), rng_(seed, {0x4d41'4348u}) {
  sched_.validate();
  mem_.validate();
}

ProcessId Machine::spawn(ProcessSpec spec) {
  const auto pid = static_cast<ProcessId>(procs_.size());
  Process p(pid, std::move(spec), now_, rng_.child(pid));
  // New processes start with a fresh timeslice, runnable, in their first
  // phase.
  p.counter_ticks_ = sched_.refill_ticks(p.nice_);
  col_state_.push_back(p.state_);
  col_counter_.push_back(p.counter_ticks_);
  col_nice_.push_back(p.nice_);
  col_last_seq_.push_back(p.last_run_seq_);
  col_sleep_until_.push_back(p.sleep_until_);
  col_resident_mb_.push_back(p.resident_mb());
  col_working_set_mb_.push_back(p.working_set_mb());
  procs_.push_back(std::move(p));
  advance_phase(procs_.back());  // pull the first phase from the program
  return pid;
}

Process& Machine::live_process(ProcessId pid, const char* op) {
  fgcs::require(pid < procs_.size(),
                std::string(op) + ": no such pid " + std::to_string(pid));
  fgcs::require(col_state_[pid] != ProcState::kExited,
                std::string(op) + ": process already exited");
  return procs_[pid];
}

void Machine::renice(ProcessId pid, int nice) {
  fgcs::require(nice >= 0 && nice <= 19, "renice: nice must be in [0, 19]");
  live_process(pid, "renice");
  col_nice_[pid] = nice;
  // Credit above the new cap is clipped (renicing down sheds privilege).
  col_counter_[pid] = std::min(
      col_counter_[pid],
      sched_.sleep_credit_multiplier * sched_.refill_ticks(nice));
}

void Machine::suspend(ProcessId pid) {
  Process& p = live_process(pid, "suspend");
  if (col_state_[pid] == ProcState::kSuspended) return;
  p.was_runnable_before_suspend_ = (col_state_[pid] == ProcState::kRunnable);
  col_state_[pid] = ProcState::kSuspended;
}

void Machine::resume(ProcessId pid) {
  Process& p = live_process(pid, "resume");
  if (col_state_[pid] != ProcState::kSuspended) return;
  // If the sleep deadline passed while suspended, the wake sweep at the
  // next tick advances the phase.
  col_state_[pid] = p.was_runnable_before_suspend_ ? ProcState::kRunnable
                                                   : ProcState::kSleeping;
}

void Machine::terminate(ProcessId pid) {
  Process& p = live_process(pid, "terminate");
  col_state_[pid] = ProcState::kExited;
  p.killed_ = true;
  p.exit_time_ = now_;
}

const Process& Machine::process(ProcessId pid) const {
  fgcs::require(pid < procs_.size(),
                "process(): no such pid " + std::to_string(pid));
  sync_mirror(pid);
  return procs_[pid];
}

void Machine::sync_mirror(ProcessId pid) const {
  Process& p = procs_[pid];
  p.state_ = col_state_[pid];
  p.counter_ticks_ = col_counter_[pid];
  p.nice_ = col_nice_[pid];
  p.last_run_seq_ = col_last_seq_[pid];
  p.sleep_until_ = col_sleep_until_[pid];
}

std::size_t Machine::live_count() const {
  std::size_t n = 0;
  for (const ProcState s : col_state_) {
    if (s != ProcState::kExited) ++n;
  }
  return n;
}

double Machine::free_memory_mb() const {
  double resident = 0.0;
  for (std::size_t i = 0; i < col_state_.size(); ++i) {
    if (col_state_[i] != ProcState::kExited &&
        col_state_[i] != ProcState::kSuspended) {
      resident += col_resident_mb_[i];
    }
  }
  return std::max(0.0, mem_.ram_mb - mem_.kernel_mb - resident);
}

double Machine::active_working_set_mb() const {
  double ws = 0.0;
  for (std::size_t i = 0; i < col_state_.size(); ++i) {
    if (col_state_[i] != ProcState::kExited &&
        col_state_[i] != ProcState::kSuspended) {
      ws += col_working_set_mb_[i];
    }
  }
  return ws;
}

void Machine::advance_phase(Process& p) {
  const ProcessId pid = p.pid_;
  // Pull phases until we land on one with work to do (or the process
  // exits). A guard bounds pathological programs that emit endless
  // zero-length phases.
  for (int guard = 0; guard < 1000; ++guard) {
    const Phase phase = p.spec_.program(p.rng_);
    p.current_phase_ = phase;
    p.phase_done_ = sim::SimDuration::zero();
    switch (phase.kind) {
      case Phase::Kind::kExit:
        col_state_[pid] = ProcState::kExited;
        p.exit_time_ = now_;
        return;
      case Phase::Kind::kCompute:
        if (phase.amount > sim::SimDuration::zero()) {
          col_state_[pid] = ProcState::kRunnable;
          return;
        }
        break;  // zero work: pull the next phase
      case Phase::Kind::kSleep:
        if (phase.amount > sim::SimDuration::zero()) {
          col_state_[pid] = ProcState::kSleeping;
          col_sleep_until_[pid] = now_ + phase.amount;
          return;
        }
        break;
    }
  }
  FGCS_ASSERT(!"phase program emitted 1000 empty phases");
}

void Machine::recalc_counters() {
  for (std::size_t i = 0; i < col_state_.size(); ++i) {
    if (col_state_[i] == ProcState::kExited) continue;
    const double refill = sched_.refill_ticks(col_nice_[i]);
    if (col_state_[i] == ProcState::kRunnable) {
      // Linux-2.4 style: runnable credit halves and refills (bounded by
      // 2x refill through the recursion itself).
      col_counter_[i] = col_counter_[i] / 2.0 + refill;
    } else {
      // Sleepers accumulate linearly up to the sleeper-credit cap — the
      // interactivity boost that protects light host processes.
      col_counter_[i] = std::min(col_counter_[i] + refill,
                                 sched_.sleep_credit_multiplier * refill);
    }
  }
}

double Machine::converge_counter(double counter, double cap, double refill,
                                 std::int64_t k) {
  if (k <= 0) return counter;
  return std::min(cap, counter + refill * static_cast<double>(k));
}

void Machine::run_until(sim::SimTime until) {
  FGCS_ASSERT(until >= now_);
  while (now_ < until) {
    step_tick(until);
  }
}

void Machine::step_tick(sim::SimTime until) {
  const sim::SimDuration tick = sched_.tick;
  const std::size_t n = col_state_.size();
  constexpr std::size_t kNoRunner = std::numeric_limits<std::size_t>::max();

  // 1. Wake sleepers whose deadline has passed: the sleep phase is over,
  // so pull the next phase from the program.
  for (std::size_t i = 0; i < n; ++i) {
    if (col_state_[i] == ProcState::kSleeping && col_sleep_until_[i] <= now_) {
      advance_phase(procs_[i]);
    }
  }

  // 2. Select the runnable process with the highest goodness.
  std::size_t runner = kNoRunner;
  bool any_runnable = false;
  std::size_t runnable_count = 0;
  for (int attempt = 0; attempt < 2 && runner == kNoRunner; ++attempt) {
    double best = 0.0;
    any_runnable = false;
    runnable_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (col_state_[i] != ProcState::kRunnable) continue;
      any_runnable = true;
      ++runnable_count;
      const double g = sched_.goodness(col_counter_[i], col_nice_[i]);
      if (g <= 0.0) continue;
      // Round-robin tie-break: older last_run_seq wins on equal goodness.
      if (runner == kNoRunner || g > best ||
          (g == best && col_last_seq_[i] < col_last_seq_[runner])) {
        best = g;
        runner = i;
      }
    }
    if (runner == kNoRunner && any_runnable) {
      // Epoch boundary: all runnable credit exhausted.
      recalc_counters();
    } else {
      break;
    }
  }

  if (runner == kNoRunner) {
    // CPU idle. Fast-forward to the next wake-up (or `until`), crediting
    // sleepers with the epoch recalculations they would have received.
    sim::SimTime next_wake = until;
    for (std::size_t i = 0; i < n; ++i) {
      if (col_state_[i] == ProcState::kSleeping) {
        next_wake = std::min(next_wake, col_sleep_until_[i]);
      }
    }
    // Advance at least one tick, in whole ticks.
    sim::SimDuration gap = next_wake - now_;
    if (gap < tick) gap = tick;
    const std::int64_t k = gap.as_micros() / tick.as_micros();
    const sim::SimDuration skipped = tick * k;
    for (std::size_t i = 0; i < n; ++i) {
      if (col_state_[i] == ProcState::kExited) continue;
      const double refill = sched_.refill_ticks(col_nice_[i]);
      col_counter_[i] = converge_counter(
          col_counter_[i], sched_.sleep_credit_multiplier * refill, refill,
          k);
    }
    totals_.idle += skipped;
    now_ += skipped;
    obs::scheduler_ticks(last_runner_ != -1, 0,
                         static_cast<std::uint64_t>(k - 1));
    last_runner_ = -1;
    return;
  }

  // 3. Run the winner at the current memory efficiency — for one tick, or,
  // with fast_forward on, for as many ticks as the scheduling decision
  // provably cannot change (no wake-up, no timeslice/phase expiry, no
  // contender overtaking the winner). The jump replays the exact per-tick
  // arithmetic, so the machine state after k fast-forwarded ticks is
  // bit-identical to k forced single ticks.
  Process& rp = procs_[runner];
  const double eff = current_efficiency();
  const sim::SimDuration progress = tick * eff;  // one tick's work
  RunPlan plan;
  if (sched_.fast_forward) {
    plan = plan_run_ticks(runner, until, progress,
                          /*sole_runnable=*/runnable_count == 1);
  } else {
    plan.ticks = 1;
    plan.counter_after = std::max(0.0, col_counter_[runner] - 1.0);
  }
  const std::int64_t k = plan.ticks;

  if (eff < 1.0) thrash_time_ += tick * k;
  rp.phase_done_ += progress * k;
  rp.cpu_time_ += progress * k;
  col_counter_[runner] = plan.counter_after;
  // A sole-runnable jump may cross epoch boundaries; every other live
  // process receives the same number of recalculations it would have
  // seen per-tick. Their branch of recalc_counters() is the capped
  // linear refill, which reaches a float fixed point — stop replaying
  // once it does.
  if (plan.recalcs > 0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (i == runner || col_state_[i] == ProcState::kExited) continue;
      const double refill = sched_.refill_ticks(col_nice_[i]);
      const double cap = sched_.sleep_credit_multiplier * refill;
      double c = col_counter_[i];
      for (std::int64_t r = 0; r < plan.recalcs; ++r) {
        const double next = std::min(c + refill, cap);
        if (next == c) break;
        c = next;
      }
      col_counter_[i] = c;
    }
  }
  run_seq_ += static_cast<std::uint64_t>(k);
  col_last_seq_[runner] = run_seq_;

  switch (rp.kind()) {
    case ProcessKind::kHost:
      totals_.host += progress * k;
      break;
    case ProcessKind::kGuest:
      totals_.guest += progress * k;
      break;
    case ProcessKind::kSystem:
      totals_.system += progress * k;
      break;
  }
  // Time lost to page faults shows up as non-CPU (I/O wait -> idle).
  totals_.idle += (tick - progress) * k;

  obs::scheduler_ticks(static_cast<std::int64_t>(rp.pid()) != last_runner_,
                       runnable_count, static_cast<std::uint64_t>(k - 1));
  last_runner_ = static_cast<std::int64_t>(rp.pid());

  // A completing phase is stamped with the *start* of its final tick,
  // exactly as per-tick execution would: advance the clock to that tick
  // first, finish the phase, then consume the tick itself.
  now_ += tick * (k - 1);
  if (rp.phase_done_ >= rp.current_phase_.amount) {
    advance_phase(rp);
  }

  now_ += tick;
}

Machine::RunPlan Machine::plan_run_ticks(
    std::size_t runner, sim::SimTime until,
    sim::SimDuration per_tick_progress, bool sole_runnable) const {
  const std::int64_t tick_us = sched_.tick.as_micros();
  const auto ceil_ticks = [tick_us](sim::SimDuration d) {
    return (d.as_micros() + tick_us - 1) / tick_us;
  };
  const std::size_t n = col_state_.size();

  // Exact (integer-time) bounds: the run_until horizon, the next sleeper
  // wake-up, and the runner's phase completion.
  std::int64_t bound = std::max<std::int64_t>(1, ceil_ticks(until - now_));
  for (std::size_t i = 0; i < n; ++i) {
    if (col_state_[i] == ProcState::kSleeping) {
      // The wake sweep already woke deadlines <= now_, so this is > 0.
      bound = std::min(bound, ceil_ticks(col_sleep_until_[i] - now_));
    }
  }
  const Process& rp = procs_[runner];
  if (per_tick_progress > sim::SimDuration::zero()) {
    const sim::SimDuration remaining =
        rp.current_phase_.amount - rp.phase_done_;
    bound = std::min(
        bound, (remaining.as_micros() + per_tick_progress.as_micros() - 1) /
                   per_tick_progress.as_micros());
  }
  bound = std::max<std::int64_t>(1, bound);

  // Timeslice decay and contender overtake are float decisions; replay
  // them tick-by-tick on a scratch counter so the predicted switch point
  // lands on exactly the tick the forced per-tick scheduler would pick.
  double best_other = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == runner || col_state_[i] != ProcState::kRunnable) continue;
    best_other =
        std::max(best_other, sched_.goodness(col_counter_[i], col_nice_[i]));
  }

  const double refill = sched_.refill_ticks(col_nice_[runner]);
  RunPlan plan;
  double counter = col_counter_[runner];
  std::int64_t t = 0;
  for (;;) {
    ++t;
    counter = std::max(0.0, counter - 1.0);
    if (t == bound) break;
    const double g = sched_.goodness(counter, col_nice_[runner]);
    if (sole_runnable) {
      // No contender can be selected before the bound, so the jump may
      // cross epoch boundaries: when the runner's credit is exhausted,
      // the next selection recalculates and picks it again (its
      // post-refill goodness is positive). Replay that recalculation
      // here; the matching sleeper updates are applied at commit.
      if (g <= 0.0) {
        counter = counter / 2.0 + refill;
        ++plan.recalcs;
      }
    } else {
      // g == best_other also stops the run: the tie-break prefers the
      // process that ran least recently, and the runner just ran.
      if (g <= 0.0 || g <= best_other) break;
    }
  }
  plan.ticks = t;
  plan.counter_after = counter;
  return plan;
}

}  // namespace fgcs::os
