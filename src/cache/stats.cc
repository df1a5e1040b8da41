#include "cache/stats.h"

namespace muve::cache {

double StatsSnapshot::hit_rate() const {
  const uint64_t total = lookups();
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

StatsSnapshot Stats::Snapshot() const {
  StatsSnapshot out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace muve::cache
