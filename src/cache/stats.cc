#include "cache/stats.h"

#include "common/strings.h"

namespace muve::cache {

double StatsSnapshot::hit_rate() const {
  const uint64_t total = lookups();
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

std::string StatsSnapshot::ToString() const {
  return "hits=" + std::to_string(hits) + " misses=" +
         std::to_string(misses) + " evictions=" + std::to_string(evictions) +
         " hit_rate=" + FormatDouble(hit_rate(), 3);
}

StatsSnapshot& StatsSnapshot::operator+=(const StatsSnapshot& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  return *this;
}

StatsSnapshot Stats::Snapshot() const {
  StatsSnapshot out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  return out;
}

void Stats::Reset() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

}  // namespace muve::cache
