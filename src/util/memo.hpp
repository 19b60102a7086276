// Work counters read by the torbench harness.
//
// Nothing in torsim is memoized (docs/performance.md, "No caches"). The
// torbench harness still calls these names, so they stay until a
// sanctioned benchmark change lets the harness drop them.
#pragma once

#include <atomic>
#include <cstdint>

namespace torsim::util {

/// Snapshot of one counter block. Without caches nothing ever hits:
/// every counted operation is recorded as a miss, so lookups() is the
/// number of operations done.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  std::uint64_t lookups() const { return hits + misses; }
};

/// Relaxed atomic counters. Perf telemetry only: kept out of
/// MetricsRegistry, whose emission is golden-compared.
class CacheCounters {
 public:
  void miss(std::uint64_t count = 1) {
    misses_.fetch_add(count, std::memory_order_relaxed);
  }

  CacheStats snapshot() const {
    CacheStats stats;
    stats.misses = misses_.load(std::memory_order_relaxed);
    return stats;
  }

  void reset() { misses_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> misses_{0};
};

/// No-op: there is no cache left to invalidate. Kept because the
/// torbench harness calls it before every pass; it stays until a
/// sanctioned benchmark change.
inline void bump_memo_epoch() {}

}  // namespace torsim::util
