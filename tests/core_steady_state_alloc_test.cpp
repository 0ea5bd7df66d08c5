// The columnar testbed walk's steady state touches the heap zero times:
// after one pass grows the shard arena and the record buffer to their
// high-water marks, an identical pass over the same machines must make no
// heap allocation at all, synthesis included. Any nonzero count fails.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "fgcs/core/testbed.hpp"

namespace fgcs::core {
namespace {

/// Heap allocations of the second of two identical run_into passes.
std::uint64_t steady_state_allocs(std::uint32_t machines, int days) {
  TestbedConfig config;
  config.machines = machines;
  config.days = days;
  const TestbedRunner runner(config);
  MachineScratch scratch;
  std::vector<trace::UnavailabilityRecord> records;
  for (std::uint32_t m = 0; m < machines; ++m) {
    runner.run_into(m, scratch, records);
  }
  const std::uint64_t before = testing::heap_allocations();
  std::size_t total = 0;
  for (std::uint32_t m = 0; m < machines; ++m) {
    runner.run_into(m, scratch, records);
    total += records.size();
  }
  const std::uint64_t after = testing::heap_allocations();
  EXPECT_GT(total, 0u);  // the walk did real work
  return after - before;
}

TEST(TestbedRunner, SteadyStateRunIntoAllocatesNothing) {
  EXPECT_EQ(steady_state_allocs(32, 7), 0u);
  EXPECT_EQ(steady_state_allocs(8, 92), 0u);
}

}  // namespace
}  // namespace fgcs::core
