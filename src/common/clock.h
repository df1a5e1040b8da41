#ifndef MUVE_COMMON_CLOCK_H_
#define MUVE_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>
#include <limits>

namespace muve {

/// Monotonic stopwatch for timing optimization and query execution.
class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  /// Elapsed time in milliseconds since construction.
  double ElapsedMillis() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Source of monotonic milliseconds for Deadline. Production deadlines
/// read the steady clock; tests inject a FakeClock so that "the deadline
/// expired" becomes a deterministic property of explicit Advance() calls
/// rather than of machine speed or scheduling.
class ClockSource {
 public:
  virtual ~ClockSource() = default;

  /// Monotonic now, in milliseconds from an arbitrary fixed origin.
  virtual double NowMillis() const = 0;
};

/// The default ClockSource: std::chrono::steady_clock.
class MonotonicClock : public ClockSource {
 public:
  double NowMillis() const override {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Shared instance; the clock is stateless, so one suffices.
  static const MonotonicClock* Instance() {
    static const MonotonicClock clock;
    return &clock;
  }
};

/// Manually advanced clock for tests. Thread-safe: pool workers may poll
/// deadlines on this clock while the test thread advances it; between
/// advances the reported time is frozen, so every Expired() poll within
/// that window returns the same answer on every thread.
class FakeClock : public ClockSource {
 public:
  explicit FakeClock(double start_millis = 0.0) : millis_(start_millis) {}

  double NowMillis() const override {
    return millis_.load(std::memory_order_acquire);
  }

  void AdvanceMillis(double delta) {
    double now = millis_.load(std::memory_order_relaxed);
    while (!millis_.compare_exchange_weak(now, now + delta,
                                          std::memory_order_acq_rel)) {
    }
  }

  void SetMillis(double now) {
    millis_.store(now, std::memory_order_release);
  }

 private:
  std::atomic<double> millis_;
};

/// A deadline on a monotonic clock. Solvers and pipeline stages poll
/// `Expired()` and return their best result so far when the deadline is
/// hit (mirroring a Gurobi time limit). Copyable; copies share the
/// absolute expiry instant and the (non-owned) clock, which must outlive
/// every copy — the default MonotonicClock always does.
class Deadline {
 public:
  /// A deadline that never expires.
  Deadline()
      : clock_(MonotonicClock::Instance()),
        expiry_millis_(std::numeric_limits<double>::infinity()) {}

  /// A deadline `millis` milliseconds from now on `clock` (the real
  /// monotonic clock when null). Non-positive budgets expire immediately;
  /// an infinite budget never expires.
  static Deadline AfterMillis(double millis,
                              const ClockSource* clock = nullptr) {
    Deadline deadline;
    if (clock != nullptr) deadline.clock_ = clock;
    if (millis != std::numeric_limits<double>::infinity()) {
      deadline.expiry_millis_ = deadline.clock_->NowMillis() + millis;
    }
    return deadline;
  }

  /// A deadline that never expires.
  static Deadline Infinite() { return Deadline(); }

  /// The deadline with less remaining budget at call time (so deadlines
  /// on different clocks compare meaningfully). This is the pipeline's
  /// single resolution point for overlapping time knobs — the planner's
  /// timeout_ms, a solver-level deadline, and the request deadline
  /// combine by chaining Tightest, and whichever has the least budget
  /// left governs the solve.
  static Deadline Tightest(const Deadline& a, const Deadline& b) {
    return a.RemainingMillis() <= b.RemainingMillis() ? a : b;
  }

  bool Expired() const { return clock_->NowMillis() >= expiry_millis_; }

  /// Remaining budget in milliseconds (0 when expired, +inf when
  /// infinite).
  double RemainingMillis() const {
    if (!IsFinite()) return std::numeric_limits<double>::infinity();
    const double left = expiry_millis_ - clock_->NowMillis();
    return left > 0.0 ? left : 0.0;
  }

  /// True when this deadline can expire at all.
  bool IsFinite() const {
    return expiry_millis_ != std::numeric_limits<double>::infinity();
  }

  /// The clock this deadline reads. Deadlines derived from this one
  /// (stage budgets, solve budgets) must be built on the same clock so
  /// a test's FakeClock governs the whole chain.
  const ClockSource* clock() const { return clock_; }

 private:
  const ClockSource* clock_;
  double expiry_millis_;
};

}  // namespace muve

#endif  // MUVE_COMMON_CLOCK_H_
