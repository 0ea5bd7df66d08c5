// The columnar testbed walk's steady state touches the heap zero times:
// after one pass grows the shard arena and the record buffer to their
// high-water marks, an identical pass over the same machines must make no
// heap allocation at all, synthesis included. Any nonzero count fails.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "fgcs/core/testbed.hpp"

// Counting global operator new. Overriding it affects this whole test
// binary; the counter only has to see every allocation, including the
// aligned ones the arena's chunks use.
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : align) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return counted_aligned(size, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return counted_aligned(size, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

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
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::size_t total = 0;
  for (std::uint32_t m = 0; m < machines; ++m) {
    runner.run_into(m, scratch, records);
    total += records.size();
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_GT(total, 0u);  // the walk did real work
  return after - before;
}

TEST(TestbedRunner, SteadyStateRunIntoAllocatesNothing) {
  EXPECT_EQ(steady_state_allocs(32, 7), 0u);
  EXPECT_EQ(steady_state_allocs(8, 92), 0u);
}

}  // namespace
}  // namespace fgcs::core
