// Wall-clock stamps for telemetry: phase spans, fold timings, queue
// waits and idle eviction. Never feeds the simulated clock or any
// result.
#pragma once

#include <chrono>
#include <cstdint>

namespace flips::common {

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace flips::common
