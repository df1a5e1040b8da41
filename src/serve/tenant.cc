#include "serve/tenant.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/strings.h"

namespace muve::serve {
namespace {

std::string TenantName(const std::string& tenant_id) {
  return tenant_id.empty() ? std::string("<default>") : tenant_id;
}

}  // namespace

TenantAccountant::TenantAccountant(
    TenantQuota default_quota,
    std::unordered_map<std::string, TenantQuota> quotas,
    const ClockSource* clock)
    : default_quota_(default_quota),
      quotas_(std::move(quotas)),
      clock_(clock != nullptr ? clock : MonotonicClock::Instance()) {}

TenantAccountant::Bucket& TenantAccountant::BucketLocked(
    const std::string& tenant_id) {
  auto it = buckets_.find(tenant_id);
  if (it != buckets_.end()) return it->second;
  Bucket bucket;
  auto quota_it = quotas_.find(tenant_id);
  bucket.quota = quota_it != quotas_.end() ? quota_it->second : default_quota_;
  if (bucket.quota.rate_qps > 0.0) {
    bucket.quota.burst = std::max(1.0, bucket.quota.burst);
    bucket.tokens = bucket.quota.burst;  // Start full: allow a burst.
    char detail[128];
    std::snprintf(detail, sizeof(detail),
                  " over quota (rate %.3g qps, burst %.3g)",
                  bucket.quota.rate_qps, bucket.quota.burst);
    bucket.reject_detail = StrCat({"tenant ", TenantName(tenant_id), detail});
  }
  bucket.quota.weight = std::max(1e-6, bucket.quota.weight);
  bucket.last_refill_millis = clock_->NowMillis();
  return buckets_.emplace(tenant_id, std::move(bucket)).first->second;
}

Status TenantAccountant::Admit(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = BucketLocked(tenant_id);
  ++bucket.counters.submitted;
  if (bucket.quota.rate_qps <= 0.0) {
    ++bucket.counters.admitted;
    return Status::OK();
  }
  const double now = clock_->NowMillis();
  const double elapsed_seconds =
      std::max(0.0, now - bucket.last_refill_millis) / 1000.0;
  bucket.tokens = std::min(bucket.quota.burst,
                           bucket.tokens +
                               elapsed_seconds * bucket.quota.rate_qps);
  bucket.last_refill_millis = now;
  if (bucket.tokens < 1.0) {
    ++bucket.counters.rejected_quota;
    return Status::Overloaded(bucket.reject_detail);
  }
  bucket.tokens -= 1.0;
  ++bucket.counters.admitted;
  return Status::OK();
}

double TenantAccountant::Weight(const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return const_cast<TenantAccountant*>(this)
      ->BucketLocked(tenant_id)
      .quota.weight;
}

void TenantAccountant::RecordCompleted(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++BucketLocked(tenant_id).counters.completed;
}

void TenantAccountant::RecordShed(const std::string& tenant_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++BucketLocked(tenant_id).counters.shed;
}

TenantCounters TenantAccountant::counters(
    const std::string& tenant_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = buckets_.find(tenant_id);
  return it != buckets_.end() ? it->second.counters : TenantCounters{};
}

}  // namespace muve::serve
