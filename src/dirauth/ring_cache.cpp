#include "dirauth/ring_cache.hpp"

namespace torsim::dirauth {

namespace {

util::CacheCounters& counters() {
  static util::CacheCounters counters;
  return counters;
}

}  // namespace

util::CacheStats ResponsibleSetCache::stats() { return counters().snapshot(); }

void ResponsibleSetCache::reset_stats() { counters().reset(); }

void ResponsibleSetCache::count_walk() { counters().miss(); }

}  // namespace torsim::dirauth
