// Ring-walk telemetry for DirectoryNetwork::fetch_from. Each fetch
// counts one walk, as a miss: nothing caches ring walks, so hits stay
// 0. The torbench harness reads these counters by name (as
// dirauth.ring_lookups and dirauth.ring_cache_hit_ratio), which is why
// the class keeps its name; it stays until a sanctioned benchmark
// change.
#pragma once

#include "util/memo.hpp"

namespace torsim::dirauth {

class ResponsibleSetCache {
 public:
  /// Process-wide count of fetch_from ring walks (hits are always 0).
  static util::CacheStats stats();
  static void reset_stats();

  /// Records one ring walk.
  static void count_walk();
};

}  // namespace torsim::dirauth
