// Process-wide heap-allocation counter for tests. Linking
// alloc_counter.cpp into a test binary replaces every global operator new
// and new[] — the aligned forms, which util::Arena chunks use, and the
// nothrow forms too — with versions that count, so a test can require
// that a code path makes no allocation at all.
#pragma once

#include <cstdint>

namespace fgcs::testing {

/// Allocations made through any global operator new since process start.
std::uint64_t heap_allocations();

}  // namespace fgcs::testing
