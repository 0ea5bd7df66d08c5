// Tests for the testbed host-load model: trajectories, overlays, profiles,
// generation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "fgcs/util/arena.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/rng.hpp"
#include "fgcs/workload/load_model.hpp"

namespace fgcs::workload {
namespace {

using namespace sim::time_literals;
using sim::SimDuration;
using sim::SimTime;

SimTime at(std::int64_t s) { return SimTime::epoch() + SimDuration::seconds(s); }

/// Point lists equal bit for bit (times, and the exact double patterns).
template <class A, class B>
void expect_same_points(const A& got, const B& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].t, want[i].t) << "point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].cpu),
              std::bit_cast<std::uint64_t>(want[i].cpu))
        << "point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].mem_mb),
              std::bit_cast<std::uint64_t>(want[i].mem_mb))
        << "point " << i;
  }
}

TEST(LoadTrajectory, StepFunctionLookup) {
  LoadTrajectory traj({{at(0), 0.1, 100.0},
                       {at(10), 0.5, 200.0},
                       {at(20), 0.2, 50.0}});
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(0)), 0.1);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(9)), 0.1);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(10)), 0.5);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(15)), 0.5);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(25)), 0.2);
  EXPECT_DOUBLE_EQ(traj.mem_at(at(12)), 200.0);
}

TEST(LoadTrajectory, EarlyTimesClampToFirstPoint) {
  LoadTrajectory traj({{at(10), 0.7, 10.0}});
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(0)), 0.7);
}

TEST(LoadTrajectory, RejectsUnsortedPoints) {
  EXPECT_THROW(LoadTrajectory({{at(10), 0.1, 0.0}, {at(5), 0.2, 0.0}}),
               ConfigError);
  EXPECT_THROW(LoadTrajectory({{at(5), 0.1, 0.0}, {at(5), 0.2, 0.0}}),
               ConfigError);
}

TEST(LoadTrajectory, CursorMatchesBinarySearch) {
  std::vector<LoadPoint> pts;
  for (int i = 0; i < 100; ++i) {
    pts.push_back({at(i * 7), i * 0.01, static_cast<double>(i)});
  }
  LoadTrajectory traj(pts);
  LoadTrajectory::Cursor cursor(traj);
  for (int s = 0; s < 700; s += 3) {
    ASSERT_DOUBLE_EQ(cursor.at(at(s)).cpu, traj.cpu_at(at(s))) << s;
  }
}

TEST(LoadOverlay, SumsOverlappingContributions) {
  LoadOverlay ov;
  ov.add_cpu(at(0), at(100), 0.3);
  ov.add_cpu(at(50), at(150), 0.4);
  const auto traj = ov.build();
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(10)), 0.3);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(60)), 0.7);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(120)), 0.4);
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(200)), 0.0);
}

TEST(LoadOverlay, CapsCpuAtOne) {
  LoadOverlay ov;
  ov.add_cpu(at(0), at(10), 0.8);
  ov.add_cpu(at(0), at(10), 0.9);
  const auto traj = ov.build();
  EXPECT_DOUBLE_EQ(traj.cpu_at(at(5)), 1.0);
}

TEST(LoadOverlay, MemorySumsWithoutCap) {
  LoadOverlay ov;
  ov.add_mem(at(0), at(10), 700.0);
  ov.add_mem(at(5), at(15), 600.0);
  const auto traj = ov.build();
  EXPECT_DOUBLE_EQ(traj.mem_at(at(7)), 1300.0);
}

TEST(LoadOverlay, EmptyIntervalRejected) {
  LoadOverlay ov;
  EXPECT_THROW(ov.add_cpu(at(5), at(5), 0.5), ConfigError);
  EXPECT_THROW(ov.add_mem(at(5), at(4), 10.0), ConfigError);
}

TEST(LoadOverlay, AddBeforeLastCutRejected) {
  LoadOverlay ov;
  util::ArenaVector<LoadPoint> out;
  ov.add_cpu(at(-30), at(10), 0.2);  // before the origin: still legal
  ov.flush_before(at(100), out);
  EXPECT_THROW(ov.add_cpu(at(99), at(200), 0.5), ConfigError);
  EXPECT_THROW(ov.add_mem(at(50), at(150), 10.0), ConfigError);
  EXPECT_NO_THROW(ov.add_cpu(at(100), at(200), 0.5));  // ties the cut
  ov.build_into(out);
  EXPECT_THROW(ov.add_cpu(at(300), at(400), 0.5), ConfigError);
}

// Flushing window by window must give the one-shot build's points, bit for
// bit, whatever the cuts: starts that tie a cut, intervals that start
// before the origin, and intervals that span several windows.
TEST(LoadOverlay, IncrementalFlushMatchesOneShotBuild) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::RngStream rng(seed, {0x4F564C59});
    LoadOverlay stepped, oneshot;
    util::ArenaVector<LoadPoint> got, want;
    // A 10 s grid makes equal timestamps common.
    auto tick = [](std::int64_t k) { return at(10 * k); };
    std::int64_t cut = -100;  // no cut yet: starts may precede the origin
    const auto windows = rng.uniform_int(1, 8);
    for (std::int64_t w = 0; w < windows; ++w) {
      const std::int64_t window_end = 60 * (w + 1);
      const auto n = rng.uniform_int(0, 25);
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t start =
            rng.bernoulli(0.2) ? cut : rng.uniform_int(cut, window_end);
        // Up to three windows long, so some intervals cross several cuts.
        const std::int64_t end = start + rng.uniform_int(1, 180);
        if (rng.bernoulli(0.5)) {
          const double cpu = rng.uniform(0.0, 0.6);
          stepped.add_cpu(tick(start), tick(end), cpu);
          oneshot.add_cpu(tick(start), tick(end), cpu);
        } else {
          const double mb = rng.uniform(0.0, 500.0);
          stepped.add_mem(tick(start), tick(end), mb);
          oneshot.add_mem(tick(start), tick(end), mb);
        }
      }
      cut = std::max(cut, rng.uniform_int(cut, window_end));
      stepped.flush_before(tick(cut), got);
      ASSERT_THROW(stepped.add_cpu(tick(cut - 1), tick(cut + 1), 0.1),
                   ConfigError);
    }
    stepped.build_into(got);
    oneshot.build_into(want);
    SCOPED_TRACE(seed);
    expect_same_points(got, want);
  }
}

// Deltas that share a timestamp are summed in insertion order: the build
// equals a stable sort of the deltas followed by a running sum. Back-to-
// back segments make such ties at every boundary, so an unstable sort
// changes the low bits. Two CPU chains of different periods, added
// alternately, also tie across runs every 600 s.
TEST(LoadOverlay, TiesSumInInsertionOrder) {
  struct Delta {
    SimTime t;
    double cpu, mem;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::RngStream rng(seed, {0x54494553});
    LoadOverlay ov;
    std::vector<Delta> deltas;  // insertion order
    auto add_cpu = [&](SimTime s, SimTime e) {
      const double cpu = rng.uniform(0.0, 0.5);
      ov.add_cpu(s, e, cpu);
      deltas.push_back({s, cpu, 0.0});
      deltas.push_back({e, -cpu, 0.0});
    };
    for (int i = 0; i < 240; ++i) {
      add_cpu(at(300 * i), at(300 * (i + 1)));
      if (i % 2 == 0) add_cpu(at(200 * i), at(200 * (i + 1)));
      if (i % 24 == 0) {
        const double mb = rng.uniform(100.0, 300.0);
        const SimTime s = at(300 * i), e = at(300 * (i + 24));
        ov.add_mem(s, e, mb);
        deltas.push_back({s, 0.0, mb});
        deltas.push_back({e, 0.0, -mb});
      }
    }
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const Delta& a, const Delta& b) { return a.t < b.t; });
    std::vector<LoadPoint> want{{SimTime::epoch(), 0.0, 0.0}};
    double cpu = 0.0, mem = 0.0;
    for (std::size_t i = 0; i < deltas.size();) {
      const SimTime t = deltas[i].t;
      for (; i < deltas.size() && deltas[i].t == t; ++i) {
        cpu += deltas[i].cpu;
        mem += deltas[i].mem;
      }
      const LoadPoint p{t, std::clamp(cpu, 0.0, 1.0), std::max(0.0, mem)};
      if (t <= want.back().t) {
        want.back() = p;
      } else {
        want.push_back(p);
      }
    }
    SCOPED_TRACE(seed);
    expect_same_points(ov.build().points(), want);
  }
}

TEST(HourlyRates, DailyTotal) {
  HourlyRates r;
  r.weekday[3] = 0.5;
  r.weekday[10] = 1.5;
  r.weekend[0] = 0.25;
  EXPECT_DOUBLE_EQ(r.daily_total(false), 2.0);
  EXPECT_DOUBLE_EQ(r.daily_total(true), 0.25);
}

TEST(Calendar, IsWeekendDay) {
  // start_dow = 0 (Monday): days 5, 6 are the first weekend.
  EXPECT_FALSE(is_weekend_day(0));
  EXPECT_FALSE(is_weekend_day(4));
  EXPECT_TRUE(is_weekend_day(5));
  EXPECT_TRUE(is_weekend_day(6));
  EXPECT_FALSE(is_weekend_day(7));
  EXPECT_TRUE(is_weekend_day(12));
  // Saturday start.
  EXPECT_TRUE(is_weekend_day(0, 5));
  EXPECT_FALSE(is_weekend_day(2, 5));
}

TEST(LabProfile, BuiltinsValidate) {
  EXPECT_NO_THROW(LabProfile::purdue_lab().validate());
  EXPECT_NO_THROW(LabProfile::enterprise_desktop().validate());
}

TEST(LabProfile, ValidationRejectsBadValues) {
  auto p = LabProfile::purdue_lab();
  p.cpu_episode_rate.weekday[0] = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);

  p = LabProfile::purdue_lab();
  p.base_load_weekday[10] = 0.9;  // above the background cap
  EXPECT_THROW(p.validate(), ConfigError);

  p = LabProfile::purdue_lab();
  p.updatedb_hour = 24;
  EXPECT_THROW(p.validate(), ConfigError);

  p = LabProfile::purdue_lab();
  p.choppy_probability = 1.5;
  EXPECT_THROW(p.validate(), ConfigError);

  // Each of these used to pass validation and then abort generation.
  for (const auto period : {SimDuration::zero(), SimDuration::minutes(-5)}) {
    p = LabProfile::purdue_lab();
    p.base_noise_period = period;
    EXPECT_THROW(p.validate(), ConfigError);
  }

  p = LabProfile::purdue_lab();
  p.busy_episode_mean_minutes = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);

  p = LabProfile::purdue_lab();
  p.failure_downtime_mean_hours = -1.0;
  EXPECT_THROW(p.validate(), ConfigError);

  p = LabProfile::purdue_lab();
  p.mem_episode_sigma_log = -0.1;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(GenerateMachineLoad, Deterministic) {
  const auto profile = LabProfile::purdue_lab();
  const auto a = generate_machine_load(profile, 42, 3, 7);
  const auto b = generate_machine_load(profile, 42, 3, 7);
  ASSERT_EQ(a.load.points().size(), b.load.points().size());
  for (std::size_t i = 0; i < a.load.points().size(); ++i) {
    ASSERT_EQ(a.load.points()[i].t, b.load.points()[i].t);
    ASSERT_EQ(a.load.points()[i].cpu, b.load.points()[i].cpu);
  }
  ASSERT_EQ(a.downtimes.size(), b.downtimes.size());
}

// Day-by-day synthesis: every day's flush leaves points strictly
// increasing, and no later day adds an interval before an earlier day's
// cut (the overlay would throw). A 90-minute noise period makes the
// background segments overlap, so they no longer arrive in time order.
TEST(GenerateMachineLoad, DayByDayFlushKeepsPointsOrdered) {
  auto overlapping_noise = LabProfile::purdue_lab();
  overlapping_noise.base_noise_period = SimDuration::minutes(90);
  const struct {
    LabProfile profile;
    int days;
  } cases[] = {{LabProfile::purdue_lab(), 92},
               {LabProfile::enterprise_desktop(), 30},
               {LabProfile::purdue_lab(), 1},
               {overlapping_noise, 14}};
  util::Arena arena;
  for (const auto& c : cases) {
    for (std::uint32_t machine = 0; machine < 4; ++machine) {
      arena.reset();
      ArenaLoadTrace trace(&arena);
      ASSERT_NO_THROW(generate_machine_load_into(c.profile, 2005, machine,
                                                 c.days, 0, &arena, trace));
      ASSERT_FALSE(trace.points.empty());
      EXPECT_EQ(trace.points.front().t, SimTime::epoch());
      for (std::size_t i = 1; i < trace.points.size(); ++i) {
        ASSERT_LT(trace.points[i - 1].t, trace.points[i].t)
            << c.days << " days, machine " << machine << ", point " << i;
      }
    }
  }
}

TEST(GenerateMachineLoad, MachinesDiffer) {
  const auto profile = LabProfile::purdue_lab();
  const auto a = generate_machine_load(profile, 42, 0, 7);
  const auto b = generate_machine_load(profile, 42, 1, 7);
  EXPECT_NE(a.load.points().size(), b.load.points().size());
}

TEST(GenerateMachineLoad, UpdatedbSpikesEveryDay) {
  auto profile = LabProfile::purdue_lab();
  const int days = 10;
  const auto trace = generate_machine_load(profile, 7, 0, days);
  for (int d = 0; d < days; ++d) {
    const SimTime probe = SimTime::epoch() + SimDuration::days(d) +
                          SimDuration::hours(4) + 10_min;
    EXPECT_GT(trace.load.cpu_at(probe), 0.6) << "day " << d;
  }
}

TEST(GenerateMachineLoad, NoUpdatedbWhenDisabled) {
  auto profile = LabProfile::purdue_lab();
  profile.updatedb_enabled = false;
  // Also silence other load sources to isolate the cron.
  profile.cpu_episode_rate = HourlyRates{};
  profile.mem_episode_rate = HourlyRates{};
  profile.busy_episode_rate = HourlyRates{};
  profile.spike_rate_per_day = 0.0;
  const auto trace = generate_machine_load(profile, 7, 0, 5);
  for (int d = 0; d < 5; ++d) {
    const SimTime probe = SimTime::epoch() + SimDuration::days(d) +
                          SimDuration::hours(4) + 10_min;
    EXPECT_LT(trace.load.cpu_at(probe), 0.6) << "day " << d;
  }
}

TEST(GenerateMachineLoad, DowntimesSortedAndDisjoint) {
  auto profile = LabProfile::purdue_lab();
  profile.reboot_rate_per_day = 0.5;  // exaggerate to get many
  profile.failure_rate_per_day = 0.1;
  const auto trace = generate_machine_load(profile, 11, 0, 60);
  ASSERT_GT(trace.downtimes.size(), 5u);
  for (std::size_t i = 1; i < trace.downtimes.size(); ++i) {
    const auto& prev = trace.downtimes[i - 1];
    const auto& cur = trace.downtimes[i];
    EXPECT_GE(cur.start.as_micros(),
              (prev.start + prev.duration).as_micros());
  }
}

TEST(GenerateMachineLoad, RebootsShorterThanFailures) {
  auto profile = LabProfile::purdue_lab();
  profile.reboot_rate_per_day = 0.5;
  profile.failure_rate_per_day = 0.2;
  const auto trace = generate_machine_load(profile, 13, 0, 120);
  for (const auto& d : trace.downtimes) {
    if (d.is_reboot) {
      EXPECT_LT(d.duration, 1_min);
    }
  }
}

TEST(GenerateMachineLoad, BackgroundStaysBelowTh2) {
  auto profile = LabProfile::purdue_lab();
  profile.cpu_episode_rate = HourlyRates{};
  profile.mem_episode_rate = HourlyRates{};
  profile.busy_episode_rate = HourlyRates{};
  profile.spike_rate_per_day = 0.0;
  profile.updatedb_enabled = false;
  const auto trace = generate_machine_load(profile, 3, 0, 7);
  for (const auto& pt : trace.load.points()) {
    EXPECT_LT(pt.cpu, 0.60);
  }
}

TEST(GenerateMachineLoad, BusyEpisodesStayBelowTh2) {
  auto profile = LabProfile::purdue_lab();
  profile.cpu_episode_rate = HourlyRates{};
  profile.mem_episode_rate = HourlyRates{};
  profile.spike_rate_per_day = 0.0;
  profile.updatedb_enabled = false;
  const auto trace = generate_machine_load(profile, 5, 0, 30);
  for (const auto& pt : trace.load.points()) {
    EXPECT_LT(pt.cpu, 0.60) << pt.t.str();
  }
}

TEST(GenerateMachineLoad, CpuValuesAlwaysInRange) {
  const auto trace =
      generate_machine_load(LabProfile::purdue_lab(), 17, 2, 30);
  for (const auto& pt : trace.load.points()) {
    ASSERT_GE(pt.cpu, 0.0);
    ASSERT_LE(pt.cpu, 1.0);
    ASSERT_GE(pt.mem_mb, 0.0);
  }
}

TEST(GenerateMachineLoad, RequiresPositiveDays) {
  EXPECT_THROW(generate_machine_load(LabProfile::purdue_lab(), 1, 0, 0),
               ConfigError);
}

TEST(GenerateMachineLoad, EnterpriseQuietAtNight) {
  const auto trace =
      generate_machine_load(LabProfile::enterprise_desktop(), 19, 0, 14);
  // Probe 2-3 AM every day: office machines are idle.
  for (int d = 0; d < 14; ++d) {
    const SimTime probe =
        SimTime::epoch() + SimDuration::days(d) + SimDuration::hours(2);
    EXPECT_LT(trace.load.cpu_at(probe), 0.3) << "day " << d;
  }
}

}  // namespace
}  // namespace fgcs::workload
