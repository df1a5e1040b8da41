#ifndef MUVE_SERVE_TENANT_H_
#define MUVE_SERVE_TENANT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "common/status.h"

namespace muve::serve {

/// Per-tenant serving contract: an admission-rate quota (token bucket)
/// plus a scheduling weight. Quotas bound how much a tenant may *offer*;
/// weights decide how queued work is *ordered* (see the weighted fair
/// dequeue in AdmissionQueue). The two compose: a flooding tenant is
/// first clipped to its rate, and whatever it still gets admitted
/// cannot crowd a lighter tenant out of dispatch order.
struct TenantQuota {
  /// Sustained admissions per second; 0 disables rate limiting.
  double rate_qps = 0.0;
  /// Token-bucket depth (instantaneous burst allowance); values < 1 are
  /// clamped to 1 when rate limiting is on — a bucket that can never
  /// hold a whole token admits nothing.
  double burst = 8.0;
  /// Weighted-fair-queueing weight (> 0): a tenant with weight 2 is
  /// dispatched twice as often as a weight-1 tenant when both stay
  /// backlogged.
  double weight = 1.0;
};

/// Monotonic funnel counters for one tenant.
struct TenantCounters {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  /// Rejected by the tenant's own token bucket.
  uint64_t rejected_quota = 0;
  uint64_t completed = 0;
  /// Shed after admission (queue full, infeasible, stopped) or failed.
  uint64_t shed = 0;
};

/// Tracks quotas, token buckets, and funnel counters per tenant id.
/// The empty tenant id is the default tenant (requests that never set
/// one); unknown tenants fall back to `default_quota`. Thread-safe.
class TenantAccountant {
 public:
  TenantAccountant(TenantQuota default_quota,
                   std::unordered_map<std::string, TenantQuota> quotas,
                   const ClockSource* clock = nullptr);

  /// Charges one admission against the tenant's token bucket. Counts
  /// the submission either way; on refusal the status is Overloaded
  /// with the tenant, its configured rate, and its burst in the
  /// message.
  Status Admit(const std::string& tenant_id);

  /// The tenant's WFQ weight (>= a small positive floor).
  double Weight(const std::string& tenant_id) const;

  void RecordCompleted(const std::string& tenant_id);
  void RecordShed(const std::string& tenant_id);

  TenantCounters counters(const std::string& tenant_id) const;

 private:
  struct Bucket {
    TenantQuota quota;
    double tokens = 0.0;
    double last_refill_millis = 0.0;
    TenantCounters counters;
    /// Rejection detail, precomputed once — a flooding tenant hits the
    /// reject path at its full offered rate, so it must not format.
    std::string reject_detail;
  };

  /// Finds or creates the tenant's bucket. Caller holds mutex_.
  Bucket& BucketLocked(const std::string& tenant_id);

  const TenantQuota default_quota_;
  const std::unordered_map<std::string, TenantQuota> quotas_;
  const ClockSource* const clock_;
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::string, Bucket> buckets_;
};

}  // namespace muve::serve

#endif  // MUVE_SERVE_TENANT_H_
