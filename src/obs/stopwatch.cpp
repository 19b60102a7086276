// The torsim tree's only wall-clock reader — see stopwatch.hpp for why
// this file, and only this file, may touch std::chrono clocks.
#include "obs/stopwatch.hpp"

#include <chrono>

#include <sys/resource.h>

namespace torsim::obs {

double wall_clock_seconds() {
  // detlint: steady_clock is allowlisted for obs/stopwatch only.
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(now).count();
}

std::int64_t peak_rss_bytes() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace torsim::obs
