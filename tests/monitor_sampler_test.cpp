// Tests for the resource samplers (machine polling and trajectory polling).
#include <gtest/gtest.h>

#include "fgcs/monitor/machine_sampler.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/workload/synthetic.hpp"

namespace fgcs::monitor {
namespace {

using namespace sim::time_literals;
using sim::SimDuration;
using sim::SimTime;

TEST(MachineSampler, MeasuresHostUsageOverWindow) {
  os::Machine m(os::SchedulerParams::linux_2_4(), os::MemoryParams::linux_1gb(),
                3);
  m.spawn(workload::synthetic_host(0.5));
  MachineSampler sampler(m);
  m.run_for(60_s);
  const HostSample s = sampler.sample();
  EXPECT_EQ(s.time, m.now());
  EXPECT_NEAR(s.host_cpu, 0.5, 0.08);
  EXPECT_TRUE(s.service_alive);
}

TEST(MachineSampler, WindowsAreDisjoint) {
  os::Machine m(os::SchedulerParams::linux_2_4(), os::MemoryParams::linux_1gb(),
                3);
  const auto pid = m.spawn(workload::synthetic_guest(0));
  MachineSampler sampler(m);
  m.run_for(30_s);
  (void)sampler.sample();
  m.terminate(pid);
  m.run_for(30_s);
  const HostSample s = sampler.sample();
  // Second window has no running process at all.
  EXPECT_NEAR(s.host_cpu, 0.0, 0.01);
}

TEST(MachineSampler, ReportsFreeMemory) {
  os::Machine m(os::SchedulerParams::linux_2_4(), os::MemoryParams::linux_1gb(),
                3);
  auto spec = workload::synthetic_host(0.2);
  spec.resident_mb = 300.0;
  m.spawn(spec);
  MachineSampler sampler(m);
  m.run_for(15_s);
  EXPECT_DOUBLE_EQ(sampler.sample().free_mem_mb, 1024.0 - 100.0 - 300.0);
}

workload::MachineLoadTrace make_trace() {
  workload::LoadOverlay ov;
  const SimTime t0 = SimTime::epoch();
  ov.add_cpu(t0, t0 + 1_h, 0.3);
  ov.add_cpu(t0 + 1_h, t0 + 2_h, 0.9);
  ov.add_mem(t0, t0 + 2_h, 800.0);
  workload::MachineLoadTrace trace;
  trace.load = ov.build();
  trace.downtimes.push_back(
      {t0 + 30_min, SimDuration::seconds(40), true});
  return trace;
}

TEST(TrajectorySampler, ReadsLoadAndMemory) {
  const auto trace = make_trace();
  TrajectorySampler sampler(trace, 1024.0, 100.0);
  const HostSample s1 = sampler.sample(SimTime::epoch() + 10_min, 15_s);
  EXPECT_DOUBLE_EQ(s1.host_cpu, 0.3);
  EXPECT_DOUBLE_EQ(s1.free_mem_mb, 1024.0 - 100.0 - 800.0);
  const HostSample s2 = sampler.sample(SimTime::epoch() + 90_min, 15_s);
  EXPECT_DOUBLE_EQ(s2.host_cpu, 0.9);
}

TEST(TrajectorySampler, DowntimeClearsAlive) {
  const auto trace = make_trace();
  TrajectorySampler sampler(trace, 1024.0, 100.0);
  EXPECT_TRUE(sampler.sample(SimTime::epoch() + 29_min, 15_s).service_alive);
  EXPECT_FALSE(
      sampler.sample(SimTime::epoch() + 30_min + 20_s, 15_s).service_alive);
  EXPECT_TRUE(
      sampler.sample(SimTime::epoch() + 31_min, 15_s).service_alive);
}

TEST(TrajectorySampler, FreeMemoryFloorsAtZero) {
  workload::LoadOverlay ov;
  ov.add_mem(SimTime::epoch(), SimTime::epoch() + 1_h, 5000.0);
  workload::MachineLoadTrace trace;
  trace.load = ov.build();
  TrajectorySampler sampler(trace, 1024.0, 100.0);
  EXPECT_DOUBLE_EQ(sampler.sample(SimTime::epoch() + 1_min, 15_s).free_mem_mb,
                   0.0);
}

TEST(TrajectorySampler, RejectsBadMemoryConfig) {
  const auto trace = make_trace();
  EXPECT_THROW(TrajectorySampler(trace, 100.0, 200.0), fgcs::ConfigError);
}

}  // namespace
}  // namespace fgcs::monitor
