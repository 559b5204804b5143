#pragma once

#include <cstdint>

namespace perfbench {

// Calls to the global operator new since process start (alloc_count.cpp).
std::uint64_t allocationsSoFar();

}  // namespace perfbench
