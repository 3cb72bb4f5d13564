// Heap-allocation counter of the benchmark binary (alloc_count.cc replaces
// the global operator new). Read it before and after a call to count the
// allocations the call made; the counter is process-wide and relaxed, which
// is exact for the single-threaded benchmark.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t allocations() noexcept;

}  // namespace perfbench
