#include "fgcs/workload/load_model.hpp"

#include <algorithm>
#include <cmath>

#include "fgcs/stats/distributions.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::workload {

using sim::SimDuration;
using sim::SimTime;

namespace {
constexpr std::uint64_t kLoadTag = 0x4C4F4144;  // "LOAD"
constexpr double kBackgroundCap = 0.55;         // background stays below Th2
constexpr double kDipLoad = 0.03;               // load during a choppy dip

SimDuration minutes_d(double m) {
  return SimDuration::from_seconds(m * 60.0);
}

/// Hour-of-day of a simulated instant.
int trace_hour(SimTime t) {
  const std::int64_t day_us = SimDuration::days(1).as_micros();
  const std::int64_t within = ((t.as_micros() % day_us) + day_us) % day_us;
  return static_cast<int>(within / SimDuration::hours(1).as_micros());
}

/// Daily episode count: dithered rounding plus a little dispersion. Lab
/// usage is far more regular than Poisson — the paper's per-machine totals
/// over 92 days span only ~11% (Table 2), which requires sub-Poisson
/// day-to-day variation.
std::uint32_t sample_daily_count(util::RngStream& rng, double mean) {
  if (mean <= 0.0) return 0;
  const double base = std::floor(mean);
  auto n = static_cast<std::uint32_t>(base);
  if (rng.uniform() < mean - base) ++n;
  const double u = rng.uniform();
  if (u < 0.12 && n > 0) --n;
  if (u > 0.88) ++n;
  return n;
}
}  // namespace

// ---------------------------------------------------------------------------
// LoadTrajectory

LoadTrajectory::LoadTrajectory(std::vector<LoadPoint> points)
    : points_(std::move(points)) {
  for (std::size_t i = 1; i < points_.size(); ++i) {
    fgcs::require(points_[i - 1].t < points_[i].t,
                  "LoadTrajectory points must be strictly increasing in time");
  }
}

std::size_t LoadTrajectory::index_for(SimTime t) const {
  FGCS_ASSERT(!points_.empty());
  // Last point with point.t <= t; clamp to front for early t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](SimTime lhs, const LoadPoint& p) { return lhs < p.t; });
  if (it == points_.begin()) return 0;
  return static_cast<std::size_t>(it - points_.begin()) - 1;
}

double LoadTrajectory::cpu_at(SimTime t) const {
  if (points_.empty()) return 0.0;
  return points_[index_for(t)].cpu;
}

double LoadTrajectory::mem_at(SimTime t) const {
  if (points_.empty()) return 0.0;
  return points_[index_for(t)].mem_mb;
}

const LoadPoint& LoadTrajectory::Cursor::at(SimTime t) {
  const auto& pts = traj_->points();
  FGCS_ASSERT(!pts.empty());
  while (index_ + 1 < pts.size() && pts[index_ + 1].t <= t) ++index_;
  return pts[index_];
}

// ---------------------------------------------------------------------------
// LoadOverlay

void LoadOverlay::add_cpu(SimTime start, SimTime end, double cpu) {
  fgcs::require(end > start, "LoadOverlay: empty cpu interval");
  add(start, end, cpu, 0.0);
}

void LoadOverlay::add_mem(SimTime start, SimTime end, double mem_mb) {
  fgcs::require(end > start, "LoadOverlay: empty mem interval");
  add(start, end, 0.0, mem_mb);
}

void LoadOverlay::add(SimTime start, SimTime end, double cpu, double mem) {
  fgcs::require(start >= cut_,
                "LoadOverlay: interval starts before the last flush cut");
  pending_.push_back({start, cpu, mem});
  pending_.push_back({end, -cpu, -mem});
}

void LoadOverlay::flush_before(SimTime cut,
                               util::ArenaVector<LoadPoint>& out) {
  sort_pending();
  const auto stop = std::lower_bound(
      pending_.begin(), pending_.end(), cut,
      [](const Delta& d, SimTime c) { return d.t < c; });
  sweep(static_cast<std::size_t>(stop - pending_.begin()), out);
  cut_ = std::max(cut_, cut);
}

void LoadOverlay::build_into(util::ArenaVector<LoadPoint>& out) {
  sort_pending();
  sweep(pending_.size(), out);
  cut_ = SimTime::max();
}

LoadTrajectory LoadOverlay::build() {
  util::ArenaVector<LoadPoint> points{util::ArenaAllocator<LoadPoint>(arena())};
  build_into(points);
  return LoadTrajectory(std::vector<LoadPoint>(points.begin(), points.end()));
}

void LoadOverlay::sort_pending() {
  const std::size_t n = pending_.size();
  runs_.clear();
  if (sorted_ > 0) runs_.push_back(0);
  std::size_t end = sorted_;
  while (end < n) {
    runs_.push_back(end);
    for (++end; end < n && !(pending_[end].t < pending_[end - 1].t); ++end) {
    }
    // Keep run lengths strictly decreasing toward the top of the stack
    // (TimSort's rule, simplified): short runs merge with each other
    // before they merge into a long one, so a long run is copied O(1)
    // times per flush.
    while (runs_.size() >= 2 &&
           runs_.back() - runs_[runs_.size() - 2] <= end - runs_.back()) {
      merge(runs_[runs_.size() - 2], runs_.back(), end);
      runs_.pop_back();
    }
  }
  while (runs_.size() >= 2) {
    merge(runs_[runs_.size() - 2], runs_.back(), n);
    runs_.pop_back();
  }
  sorted_ = n;
}

void LoadOverlay::merge(std::size_t lo, std::size_t mid, std::size_t hi) {
  const auto earlier = [](const Delta& a, const Delta& b) { return a.t < b.t; };
  Delta* const data = pending_.data();
  Delta* const pivot = data + mid;
  // Left deltas no later than the right run's first, and right deltas no
  // earlier than the left run's last, are already in place.
  Delta* const first = std::upper_bound(data + lo, pivot, *pivot, earlier);
  Delta* const last = std::lower_bound(pivot, data + hi, pivot[-1], earlier);
  if (first == pivot || pivot == last) return;
  // Copy the shorter side out and merge into the gap it leaves; on equal
  // times the left (earlier-inserted) delta goes first.
  if (pivot - first <= last - pivot) {
    scratch_.assign(first, pivot);
    const Delta* a = scratch_.data();
    const Delta* const a_end = a + scratch_.size();
    const Delta* b = pivot;
    Delta* out = first;
    while (a != a_end && b != last) *out++ = b->t < a->t ? *b++ : *a++;
    std::copy(a, a_end, out);
  } else {
    scratch_.assign(pivot, last);
    const Delta* const b_begin = scratch_.data();
    const Delta* b = b_begin + scratch_.size();
    const Delta* a = pivot;
    Delta* out = last;
    while (a != first && b != b_begin) {
      *--out = b[-1].t < a[-1].t ? *--a : *--b;
    }
    std::copy(b_begin, b, first);
  }
}

void LoadOverlay::sweep(std::size_t count, util::ArenaVector<LoadPoint>& out) {
  if (out.empty()) out.push_back({origin_, 0.0, 0.0});
  std::size_t i = 0;
  while (i < count) {
    const SimTime t = pending_[i].t;
    for (; i < count && pending_[i].t == t; ++i) {
      cpu_ += pending_[i].cpu;
      mem_ += pending_[i].mem;
    }
    // Numerical noise from +=/-= pairs can leave tiny negatives.
    const double cpu_val = std::clamp(cpu_, 0.0, 1.0);
    const double mem_val = std::max(0.0, mem_);
    if (t <= out.back().t) {
      out.back().cpu = cpu_val;
      out.back().mem_mb = mem_val;
    } else {
      out.push_back({t, cpu_val, mem_val});
    }
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(count));
  sorted_ = pending_.size();
}

// ---------------------------------------------------------------------------
// Profiles

double HourlyRates::daily_total(bool weekend_day) const {
  const auto& arr = weekend_day ? weekend : weekday;
  double sum = 0.0;
  for (double v : arr) sum += v;
  return sum;
}

bool is_weekend_day(int day_index, int start_dow) {
  fgcs::require(start_dow >= 0 && start_dow < 7, "start_dow must be in [0,7)");
  const int dow = (start_dow + day_index % 7 + 7) % 7;
  return dow >= 5;
}

namespace {
/// Fills [lo_hour, hi_hour) with `value` (hi exclusive).
void fill_hours(std::array<double, 24>& a, int lo, int hi, double value) {
  for (int h = lo; h < hi; ++h) a[static_cast<std::size_t>(h)] = value;
}
}  // namespace

LabProfile LabProfile::purdue_lab() {
  LabProfile p;

  // Heavy CPU episodes: students compile/test from mid-morning deep into
  // the evening (the lab is busy past midnight on weekdays). Calibrated so
  // UEC-CPU totals land in Table 2's 283-356 range while interval lengths
  // match Figure 6.
  p.cpu_episode_rate.weekday[0] = 0.06;
  fill_hours(p.cpu_episode_rate.weekday, 1, 6, 0.004);
  p.cpu_episode_rate.weekday[6] = 0.04;
  p.cpu_episode_rate.weekday[7] = 0.05;
  p.cpu_episode_rate.weekday[8] = 0.07;
  p.cpu_episode_rate.weekday[9] = 0.10;
  fill_hours(p.cpu_episode_rate.weekday, 10, 18, 0.17);
  fill_hours(p.cpu_episode_rate.weekday, 18, 24, 0.155);

  fill_hours(p.cpu_episode_rate.weekend, 0, 8, 0.003);
  p.cpu_episode_rate.weekend[8] = 0.04;
  p.cpu_episode_rate.weekend[9] = 0.08;
  fill_hours(p.cpu_episode_rate.weekend, 10, 18, 0.105);
  fill_hours(p.cpu_episode_rate.weekend, 18, 24, 0.06);

  p.cpu_episode_mean_minutes = 200.0;
  p.cpu_episode_sigma_log = 0.35;
  p.choppy_probability = 0.08;
  p.choppy_dips_max = 1;

  // Memory episodes: Table 2's 83-121 range.
  p.mem_episode_rate.weekday[8] = 0.03;
  p.mem_episode_rate.weekday[9] = 0.05;
  fill_hours(p.mem_episode_rate.weekday, 10, 18, 0.10);
  fill_hours(p.mem_episode_rate.weekday, 18, 22, 0.07);
  p.mem_episode_rate.weekday[22] = 0.04;

  p.mem_episode_rate.weekend[8] = 0.02;
  p.mem_episode_rate.weekend[9] = 0.03;
  fill_hours(p.mem_episode_rate.weekend, 10, 18, 0.06);
  fill_hours(p.mem_episode_rate.weekend, 18, 22, 0.04);
  p.mem_episode_rate.weekend[22] = 0.02;

  // Busy-but-usable periods (S2-level load; guest reniced, no failure).
  fill_hours(p.busy_episode_rate.weekday, 9, 23, 0.12);
  fill_hours(p.busy_episode_rate.weekend, 10, 22, 0.07);

  // Diurnal background (light editing/browsing; always below Th2).
  fill_hours(p.base_load_weekday, 0, 8, 0.04);
  p.base_load_weekday[8] = 0.10;
  p.base_load_weekday[9] = 0.15;
  fill_hours(p.base_load_weekday, 10, 18, 0.28);
  fill_hours(p.base_load_weekday, 18, 22, 0.22);
  p.base_load_weekday[22] = 0.12;
  p.base_load_weekday[23] = 0.06;

  fill_hours(p.base_load_weekend, 0, 8, 0.03);
  p.base_load_weekend[8] = 0.06;
  p.base_load_weekend[9] = 0.06;
  fill_hours(p.base_load_weekend, 10, 18, 0.12);
  fill_hours(p.base_load_weekend, 18, 22, 0.09);
  p.base_load_weekend[22] = 0.05;
  p.base_load_weekend[23] = 0.05;

  return p;
}

LabProfile LabProfile::enterprise_desktop() {
  LabProfile p;

  // One office worker, business hours only; machine idle otherwise.
  fill_hours(p.cpu_episode_rate.weekday, 9, 12, 0.16);
  fill_hours(p.cpu_episode_rate.weekday, 13, 17, 0.16);
  p.cpu_episode_rate.weekday[12] = 0.06;  // lunch dip
  fill_hours(p.cpu_episode_rate.weekend, 0, 24, 0.004);

  p.cpu_episode_mean_minutes = 55.0;
  p.cpu_episode_sigma_log = 0.45;
  p.choppy_probability = 0.15;

  fill_hours(p.mem_episode_rate.weekday, 9, 17, 0.07);
  fill_hours(p.mem_episode_rate.weekend, 0, 24, 0.002);

  fill_hours(p.busy_episode_rate.weekday, 9, 17, 0.10);
  p.spike_rate_per_day = 3.0;

  fill_hours(p.base_load_weekday, 0, 8, 0.02);
  fill_hours(p.base_load_weekday, 8, 18, 0.20);
  fill_hours(p.base_load_weekday, 18, 24, 0.03);
  fill_hours(p.base_load_weekend, 0, 24, 0.02);

  // Office PCs run no locate database cron; owners rarely reboot them
  // during the day.
  p.updatedb_enabled = false;
  p.reboot_rate_per_day = 0.02;
  p.failure_rate_per_day = 0.006;

  return p;
}

void LabProfile::validate() const {
  auto check_rates = [](const std::array<double, 24>& a, const char* what) {
    for (double v : a) {
      fgcs::require(v >= 0.0, std::string(what) + " rate must be >= 0");
    }
  };
  check_rates(cpu_episode_rate.weekday, "cpu weekday");
  check_rates(cpu_episode_rate.weekend, "cpu weekend");
  check_rates(mem_episode_rate.weekday, "mem weekday");
  check_rates(mem_episode_rate.weekend, "mem weekend");
  for (double v : base_load_weekday) {
    fgcs::require(v >= 0.0 && v <= kBackgroundCap,
                  "weekday base load must stay below the background cap");
  }
  for (double v : base_load_weekend) {
    fgcs::require(v >= 0.0 && v <= kBackgroundCap,
                  "weekend base load must stay below the background cap");
  }
  fgcs::require(cpu_episode_mean_minutes > 0, "cpu episode mean must be > 0");
  fgcs::require(mem_episode_mean_minutes > 0, "mem episode mean must be > 0");
  fgcs::require(busy_episode_mean_minutes > 0,
                "busy episode mean must be > 0");
  fgcs::require(cpu_episode_sigma_log >= 0 && mem_episode_sigma_log >= 0 &&
                    busy_episode_sigma_log >= 0,
                "episode sigma_log must be >= 0");
  fgcs::require(base_noise_period.as_micros() > 0,
                "base_noise_period must be > 0");
  fgcs::require(cpu_episode_load_lo <= cpu_episode_load_hi &&
                    cpu_episode_load_lo > 0 && cpu_episode_load_hi <= 1.0,
                "cpu episode load bounds invalid");
  fgcs::require(choppy_probability >= 0 && choppy_probability <= 1,
                "choppy_probability must be a probability");
  fgcs::require(choppy_dips_max >= 1, "choppy_dips_max must be >= 1");
  fgcs::require(updatedb_hour >= 0 && updatedb_hour < 24,
                "updatedb_hour must be an hour of day");
  fgcs::require(reboot_rate_per_day >= 0 && failure_rate_per_day >= 0,
                "URR rates must be >= 0");
  fgcs::require(failure_downtime_mean_hours > 0,
                "failure downtime mean must be > 0");
  fgcs::require(spike_rate_per_day >= 0, "spike rate must be >= 0");
  fgcs::require(spike_min_seconds > 0 && spike_max_seconds >= spike_min_seconds,
                "spike duration bounds invalid");
  fgcs::require(busy_episode_load_lo <= busy_episode_load_hi &&
                    busy_episode_load_lo >= 0 && busy_episode_load_hi <= 1.0,
                "busy episode load bounds invalid");
  check_rates(busy_episode_rate.weekday, "busy weekday");
  check_rates(busy_episode_rate.weekend, "busy weekend");
}

// ---------------------------------------------------------------------------
// Generation

namespace {

/// Inverse of the cumulative hourly-rate function: maps mass position
/// `target` in [0, total) to a time offset within the day.
SimDuration position_for_mass(const std::array<double, 24>& rates,
                              double target) {
  double cum = 0.0;
  for (int h = 0; h < 24; ++h) {
    const double r = rates[static_cast<std::size_t>(h)];
    if (target < cum + r && r > 0.0) {
      const double frac = (target - cum) / r;
      return SimDuration::hours(h) + SimDuration::from_seconds(frac * 3600.0);
    }
    cum += r;
  }
  return SimDuration::hours(24) - SimDuration::seconds(1);
}

/// Emits a heavy CPU episode, possibly with choppy sub-threshold dips.
void emit_cpu_episode(LoadOverlay& ov, const LabProfile& p, SimTime start,
                      SimDuration dur, util::RngStream& rng) {
  const double load = rng.uniform(p.cpu_episode_load_lo, p.cpu_episode_load_hi);
  const bool choppy = rng.bernoulli(p.choppy_probability) &&
                      dur > SimDuration::minutes(20);
  if (!choppy) {
    ov.add_cpu(start, start + dur, load);
    return;
  }
  const int dips = static_cast<int>(rng.uniform_int(1, p.choppy_dips_max));
  // Dip midpoints uniformly in the middle 70% of the episode, sorted.
  // Scratch shares the overlay's arena so the choppy path stays
  // allocation-free in steady state.
  util::ArenaVector<double> mids{util::ArenaAllocator<double>(ov.arena())};
  for (int i = 0; i < dips; ++i) mids.push_back(rng.uniform(0.15, 0.85));
  std::sort(mids.begin(), mids.end());
  SimTime cursor = start;
  const SimTime end = start + dur;
  for (double mid : mids) {
    const SimDuration dip_len = minutes_d(
        rng.uniform(p.choppy_dip_min_minutes, p.choppy_dip_max_minutes));
    SimTime dip_start = start + dur * mid - dip_len / 2;
    if (dip_start <= cursor) continue;
    SimTime dip_end = dip_start + dip_len;
    if (dip_end >= end) break;
    ov.add_cpu(cursor, dip_start, load);
    ov.add_cpu(dip_start, dip_end, kDipLoad);
    cursor = dip_end;
  }
  if (cursor < end) ov.add_cpu(cursor, end, load);
}

}  // namespace

void generate_machine_load_into(const LabProfile& profile, std::uint64_t seed,
                                std::uint32_t machine_id, int days,
                                int start_dow, util::Arena* arena,
                                ArenaLoadTrace& out) {
  fgcs::require(days > 0, "trace horizon must be at least one day");

  const SimTime epoch = SimTime::epoch();
  LoadOverlay ov(epoch, arena);
  util::ArenaVector<Downtime> downtimes{util::ArenaAllocator<Downtime>(arena)};
  struct Span {
    SimTime start;
    SimDuration dur;
  };
  util::ArenaVector<Span> cpu_episodes{util::ArenaAllocator<Span>(arena)};

  for (int day = 0; day < days; ++day) {
    util::RngStream rng(seed, {kLoadTag, machine_id,
                               static_cast<std::uint64_t>(day)});
    const bool we = is_weekend_day(day, start_dow);
    const SimTime day_start = epoch + SimDuration::days(day);

    // Diurnal background with short-period noise.
    const auto& base =
        we ? profile.base_load_weekend : profile.base_load_weekday;
    const std::int64_t noise_us = profile.base_noise_period.as_micros();
    FGCS_ASSERT(noise_us > 0);
    const auto segs_per_hour =
        std::max<std::int64_t>(1, SimDuration::hours(1).as_micros() / noise_us);
    for (int h = 0; h < 24; ++h) {
      const SimTime hour_start = day_start + SimDuration::hours(h);
      for (std::int64_t s = 0; s < segs_per_hour; ++s) {
        const SimTime seg_start =
            hour_start + profile.base_noise_period * s;
        const SimTime seg_end = seg_start + profile.base_noise_period;
        const double cpu =
            std::clamp(base[static_cast<std::size_t>(h)] +
                           profile.base_noise * rng.uniform(-1.0, 1.0),
                       0.0, kBackgroundCap);
        if (cpu > 0.0) ov.add_cpu(seg_start, seg_end, cpu);
      }
    }

    // Base host memory, redrawn every two hours.
    for (int seg = 0; seg < 12; ++seg) {
      const SimTime s = day_start + SimDuration::hours(2 * seg);
      ov.add_mem(s, s + SimDuration::hours(2),
                 rng.uniform(profile.base_mem_lo, profile.base_mem_hi));
    }

    // updatedb cron: high system CPU on every machine, every day (§5.3).
    if (profile.updatedb_enabled) {
      const SimTime s = day_start + SimDuration::hours(profile.updatedb_hour);
      ov.add_cpu(s, s + minutes_d(profile.updatedb_minutes),
                 profile.updatedb_load);
    }

    // Heavy CPU episodes, stratified over the hourly-rate profile so
    // spacing is regular (students arrive steadily through the day).
    cpu_episodes.clear();
    {
      const auto& rates =
          we ? profile.cpu_episode_rate.weekend : profile.cpu_episode_rate.weekday;
      const double total = profile.cpu_episode_rate.daily_total(we);
      const auto n = sample_daily_count(rng, total);
      for (std::uint32_t i = 0; i < n; ++i) {
        const double u =
            (static_cast<double>(i) + rng.uniform(0.35, 0.65)) /
            static_cast<double>(n);
        const SimTime start = day_start + position_for_mass(rates, u * total);
        double dur_min = stats::sample_lognormal_mean(
            rng, profile.cpu_episode_mean_minutes, profile.cpu_episode_sigma_log);
        dur_min = std::clamp(dur_min, 5.0, 420.0);
        cpu_episodes.push_back({start, minutes_d(dur_min)});
        emit_cpu_episode(ov, profile, start, minutes_d(dur_min), rng);
      }
    }

    // Memory episodes. Most belong to the same heavy-use session as a CPU
    // episode (the IDE that compiles also bloats memory) and overlap its
    // tail; the rest are independent desktop-app sessions.
    {
      const auto& rates =
          we ? profile.mem_episode_rate.weekend : profile.mem_episode_rate.weekday;
      const double total = profile.mem_episode_rate.daily_total(we);
      const auto n = sample_daily_count(rng, total);
      for (std::uint32_t i = 0; i < n; ++i) {
        double dur_min = stats::sample_lognormal_mean(
            rng, profile.mem_episode_mean_minutes, profile.mem_episode_sigma_log);
        dur_min = std::clamp(dur_min, 3.0, 240.0);
        const SimDuration dur = minutes_d(dur_min);
        SimTime start;
        if (!cpu_episodes.empty() &&
            rng.bernoulli(profile.mem_attach_probability)) {
          const auto& host = cpu_episodes[rng.uniform_index(cpu_episodes.size())];
          // Overlap the tail: begin inside the episode, extend past its end.
          start = host.start + host.dur - dur * rng.uniform(0.2, 0.6);
        } else {
          const double u =
              (static_cast<double>(i) + rng.uniform(0.35, 0.65)) /
              static_cast<double>(n);
          start = day_start + position_for_mass(rates, u * total);
        }
        const double mb =
            rng.uniform(profile.mem_episode_mb_lo, profile.mem_episode_mb_hi);
        ov.add_mem(start, start + dur, mb);
      }
    }

    // Busy-but-usable periods: load between Th1 and Th2.
    {
      const auto& rates = we ? profile.busy_episode_rate.weekend
                             : profile.busy_episode_rate.weekday;
      const double total = profile.busy_episode_rate.daily_total(we);
      const auto n = sample_daily_count(rng, total);
      for (std::uint32_t i = 0; i < n; ++i) {
        const double u =
            (static_cast<double>(i) + rng.uniform(0.35, 0.65)) /
            static_cast<double>(n);
        const SimTime start = day_start + position_for_mass(rates, u * total);
        double dur_min = stats::sample_lognormal_mean(
            rng, profile.busy_episode_mean_minutes,
            profile.busy_episode_sigma_log);
        dur_min = std::clamp(dur_min, 5.0, 240.0);
        // Contribution on top of the background, targeting a *total* in
        // [busy_lo, busy_hi]: subtract the base level at the start hour
        // (plus noise headroom) so the sum stays below Th2.
        const double target = rng.uniform(profile.busy_episode_load_lo,
                                          profile.busy_episode_load_hi);
        const int start_hour = trace_hour(start);
        const double contribution =
            target - base[static_cast<std::size_t>(start_hour)] -
            profile.base_noise;
        if (contribution > 0.0) {
          ov.add_cpu(start, start + minutes_d(dur_min), contribution);
        }
      }
    }

    // Sub-minute load spikes (remote X clients, system processes): common,
    // absorbed by the 1-minute suspend rule.
    {
      const auto n = sample_daily_count(rng, profile.spike_rate_per_day);
      for (std::uint32_t i = 0; i < n; ++i) {
        const SimTime start =
            day_start + SimDuration::from_seconds(rng.uniform(0.0, 86400.0));
        const SimDuration dur = SimDuration::from_seconds(
            rng.uniform(profile.spike_min_seconds, profile.spike_max_seconds));
        ov.add_cpu(start, start + dur, profile.spike_load);
      }
    }

    // URR: owner reboots and hardware/software failures (§5.1).
    {
      const auto reboots = stats::sample_poisson(rng, profile.reboot_rate_per_day);
      for (std::uint32_t i = 0; i < reboots; ++i) {
        Downtime d;
        d.start = day_start + SimDuration::from_seconds(rng.uniform(0.0, 86400.0));
        d.duration = SimDuration::from_seconds(rng.uniform(
            profile.reboot_downtime_s_lo, profile.reboot_downtime_s_hi));
        d.is_reboot = true;
        downtimes.push_back(d);
      }
      const auto failures =
          stats::sample_poisson(rng, profile.failure_rate_per_day);
      for (std::uint32_t i = 0; i < failures; ++i) {
        Downtime d;
        d.start = day_start + SimDuration::from_seconds(rng.uniform(0.0, 86400.0));
        d.duration = SimDuration::from_seconds(
            rng.exponential(profile.failure_downtime_mean_hours * 3600.0));
        d.is_reboot = false;
        downtimes.push_back(d);
      }
    }

    // Only an attached memory episode starts before its own day, and by
    // at most 0.6 x 240 min, so no later day reaches back past this one's
    // start: everything earlier is final.
    ov.flush_before(day_start, out.points);
  }

  std::sort(downtimes.begin(), downtimes.end(),
            [](const Downtime& a, const Downtime& b) { return a.start < b.start; });
  // Drop downtimes swallowed by a preceding one (rare).
  auto& merged = out.downtimes;
  for (const auto& d : downtimes) {
    if (!merged.empty() && d.start < merged.back().start + merged.back().duration) {
      continue;
    }
    merged.push_back(d);
  }

  ov.build_into(out.points);
}

MachineLoadTrace generate_machine_load(const LabProfile& profile,
                                       std::uint64_t seed,
                                       std::uint32_t machine_id, int days,
                                       int start_dow) {
  profile.validate();
  // One generation core: the public API materializes the arena-native
  // result into the std::vector-backed types, so both paths are
  // value-identical by construction.
  ArenaLoadTrace scratch(nullptr);
  generate_machine_load_into(profile, seed, machine_id, days, start_dow,
                             nullptr, scratch);
  MachineLoadTrace trace;
  trace.load = LoadTrajectory(
      std::vector<LoadPoint>(scratch.points.begin(), scratch.points.end()));
  trace.downtimes.assign(scratch.downtimes.begin(), scratch.downtimes.end());
  return trace;
}

}  // namespace fgcs::workload
