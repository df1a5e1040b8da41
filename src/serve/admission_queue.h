#ifndef MUVE_SERVE_ADMISSION_QUEUE_H_
#define MUVE_SERVE_ADMISSION_QUEUE_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace muve::serve {

/// Scheduling class of one serving request. Classes are a *strict*
/// priority: every queued interactive request dispatches before any
/// replay request — replay traffic (bulk re-runs, warmers, analytics)
/// may starve under interactive load, never the other way around.
enum class RequestClass {
  kInteractive = 0,  ///< A user is waiting on the answer.
  kReplay = 1,       ///< Background replay / bulk traffic.
};

inline constexpr size_t kNumRequestClasses = 2;

/// Bounded admission queue with two nested orders:
///
///   1. Across tenants: weighted fair dequeue (start-time fair queuing).
///      Each tenant is a lane with a virtual time that advances by
///      1/weight per dispatch; Pop serves the backlogged lane with the
///      smallest virtual time, so over any backlogged interval tenants
///      receive dispatches proportional to their weights — a tenant
///      flooding the queue advances its own virtual time and cannot
///      starve a lighter one. A lane going idle and returning resumes
///      at the queue's virtual floor (no credit accrues while idle,
///      and no penalty survives).
///   2. Within a tenant — and strictly across all of them for classes:
///      (class, earliest absolute deadline, arrival). Class is a strict
///      priority ahead of fairness: every queued interactive request
///      dispatches before any replay request, whoever owns it; among
///      lanes whose best entry is the same class, fairness picks.
///
/// With a single tenant (every Push using the default tenant id) the
/// lane structure degenerates to exactly the old order: strict class
/// priority, EDF within a class, FIFO among equal deadlines (infinite
/// deadlines sort last, so bounded requests always overtake unbounded
/// ones of the same class).
///
/// Admission is the server's backpressure point: Push on a full queue
/// (the bound is global, across lanes) fails fast with
/// Status::Overloaded instead of queueing unboundedly.
///
/// The EDF key is the request deadline's absolute expiry projected onto
/// its own clock at push time (`clock->NowMillis() + remaining`), so
/// ordering is stable while entries wait.
///
/// Thread-safe; Pop blocks until an entry arrives or Close() is called.
/// T must be movable (move-only types like std::unique_ptr work).
template <typename T>
class AdmissionQueue {
 public:
  /// `max_depth` bounds queued-but-undispatched entries (at least 1).
  explicit AdmissionQueue(size_t max_depth)
      : max_depth_(std::max<size_t>(1, max_depth)) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  size_t max_depth() const { return max_depth_; }

  /// Enqueues `item` on `tenant_id`'s lane with the given fair-share
  /// `weight` (the lane adopts the latest weight it sees). Fails with
  /// Overloaded when the queue is full and FailedPrecondition once
  /// closed; on failure the caller's object is not moved from
  /// (rejection paths still own their request and can resolve its
  /// promise).
  Status Push(T&& item, const Deadline& deadline, RequestClass cls,
              const std::string& tenant_id = std::string(),
              double weight = 1.0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        return Status::FailedPrecondition("admission queue closed");
      }
      if (size_ >= max_depth_) {
        ++rejected_full_;
        return Status::Overloaded("admission queue full");
      }
      Lane& lane = lanes_[tenant_id];
      if (lane.heap.empty()) {
        // New backlog starts at the virtual floor: an idle lane earns
        // no retroactive credit against tenants that kept the queue
        // busy.
        lane.vtime = std::max(lane.vtime, vfloor_);
      }
      lane.weight = std::max(1e-6, weight);
      Entry entry;
      entry.item = std::move(item);
      entry.cls = static_cast<int>(cls);
      entry.edf_key =
          deadline.IsFinite()
              ? deadline.clock()->NowMillis() + deadline.RemainingMillis()
              : std::numeric_limits<double>::infinity();
      entry.seq = next_seq_++;
      lane.heap.push_back(std::move(entry));
      std::push_heap(lane.heap.begin(), lane.heap.end(), LaterFirst);
      ++size_;
      ++pushed_;
    }
    cv_.notify_one();
    return Status::OK();
  }

  /// Blocks until an entry is available and moves the scheduled-first
  /// one into `*out`, or returns false when the queue is closed and
  /// drained (entries pushed before Close still pop).
  bool Pop(T* out) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return closed_ || size_ > 0; });
    if (size_ == 0) return false;
    // Pick the lane: best head class first (strict), then smallest
    // virtual time, then earliest head (deadline, then seq) for a
    // deterministic tie-break.
    auto best = lanes_.end();
    for (auto it = lanes_.begin(); it != lanes_.end(); ++it) {
      Lane& lane = it->second;
      if (lane.heap.empty()) continue;
      if (best == lanes_.end()) {
        best = it;
        continue;
      }
      const Entry& head = lane.heap.front();
      const Entry& best_head = best->second.heap.front();
      if (head.cls != best_head.cls) {
        if (head.cls < best_head.cls) best = it;
        continue;
      }
      if (lane.vtime != best->second.vtime) {
        if (lane.vtime < best->second.vtime) best = it;
        continue;
      }
      if (head.edf_key != best_head.edf_key) {
        if (head.edf_key < best_head.edf_key) best = it;
        continue;
      }
      if (head.seq < best_head.seq) best = it;
    }
    Lane& lane = best->second;
    vfloor_ = std::max(vfloor_, lane.vtime);
    lane.vtime += 1.0 / lane.weight;
    std::pop_heap(lane.heap.begin(), lane.heap.end(), LaterFirst);
    *out = std::move(lane.heap.back().item);
    lane.heap.pop_back();
    --size_;
    if (lane.heap.empty()) lanes_.erase(best);
    return true;
  }

  /// Stops admissions and wakes every blocked Pop. Entries already
  /// queued still drain; once empty, Pop returns false.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Entries currently queued (admitted, not yet popped), over all
  /// lanes.
  size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  /// Entries currently queued on one tenant's lane.
  size_t tenant_depth(const std::string& tenant_id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = lanes_.find(tenant_id);
    return it != lanes_.end() ? it->second.heap.size() : 0;
  }

  uint64_t pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }

  /// Pushes rejected because the queue was at max_depth.
  uint64_t rejected_full() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return rejected_full_;
  }

 private:
  struct Entry {
    T item;
    int cls = 0;
    double edf_key = 0.0;
    uint64_t seq = 0;
  };

  /// One tenant's backlog: a (class, deadline, seq) heap plus its fair
  /// queuing state. `vtime` only ever advances; an empty lane is erased
  /// and a returning tenant re-enters at the floor.
  struct Lane {
    std::vector<Entry> heap;
    double vtime = 0.0;
    double weight = 1.0;
  };

  /// std::push_heap comparator for a min-ordered pop: "a schedules
  /// *later* than b" puts the earliest (class, deadline, seq) on top.
  static bool LaterFirst(const Entry& a, const Entry& b) {
    if (a.cls != b.cls) return a.cls > b.cls;
    if (a.edf_key != b.edf_key) return a.edf_key > b.edf_key;
    return a.seq > b.seq;
  }

  const size_t max_depth_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, Lane> lanes_;
  size_t size_ = 0;
  /// Virtual floor: the largest lane vtime ever dispatched. New
  /// backlogs start here.
  double vfloor_ = 0.0;
  bool closed_ = false;
  uint64_t next_seq_ = 0;
  uint64_t pushed_ = 0;
  uint64_t rejected_full_ = 0;
};

}  // namespace muve::serve

#endif  // MUVE_SERVE_ADMISSION_QUEUE_H_
