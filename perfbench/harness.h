// Measurement arithmetic of the MUVE benchmark, kept free of MUVE
// headers so its rules can be unit-tested on their own
// (harness_test.cc): percentiles with the sample-count rule, open-loop
// request clocks, and in-memory spans with self-time accounting.

#ifndef MUVE_PERFBENCH_HARNESS_H_
#define MUVE_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile. Fewer
/// means the run was too short to say anything about that tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// A percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  /// False when fewer than kMinSamplesBeyond samples lie beyond the
  /// reported rank (value is then 0 and must not be reported as data).
  bool supported = false;
};

/// Nearest-rank `p`-quantile (0 < p < 1) of `samples`: the smallest
/// sample with at least p of the samples at or below it.
inline Percentile TakePercentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  if (n - 1 - rank < kMinSamplesBeyond) return out;
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  out.value = samples[rank];
  out.supported = true;
  return out;
}

/// Clock readings of one open-loop request, in milliseconds since the
/// start of the timed window. The schedule fixes `due_ms` before the
/// clock starts; a generator that falls behind sends late, and that
/// wait belongs to the request's latency.
struct RequestClock {
  double due_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;

  double latency_ms() const { return done_ms - due_ms; }
  double late_ms() const { return sent_ms - due_ms; }
};

/// Open-loop arrivals: `count` Poisson arrivals over [0, seconds), i.e.
/// sorted independent uniform instants (a Poisson process conditioned on
/// its count), drawn from `uniform` (a callable returning doubles in
/// [0, 1)). Fixing the count keeps every run's sample size the same.
template <typename Uniform>
std::vector<double> PoissonSchedule(size_t count, double seconds,
                                    Uniform&& uniform) {
  std::vector<double> due(count);
  for (double& t : due) t = uniform() * seconds * 1000.0;
  std::sort(due.begin(), due.end());
  return due;
}

/// One timed interval of one request. `parent` indexes the enclosing
/// span in the same Trace (-1 for a root); `request` groups the spans
/// of one request (0 for work that belongs to no request, such as the
/// ingest writer's appends).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int64_t parent = -1;
  uint64_t request = 0;
  uint32_t thread = 0;

  double duration_ms() const { return end_ms - start_ms; }
};

/// Length of the union of `intervals` clipped to [lo, hi].
inline double CoveredMillis(std::vector<std::pair<double, double>> intervals,
                            double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double reach = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, reach);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

/// An in-memory span buffer. Recording takes a mutex (spans arrive from
/// the load thread and from shard listener threads); nothing is written
/// out until WriteChromeJson at exit. A disabled trace records nothing,
/// which is how the same code path is timed with tracing off.
class Trace {
 public:
  explicit Trace(bool enabled = true) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its index (or -1 when disabled).
  int64_t Add(Span span) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Reserves a slot for a span whose children will be recorded before
  /// it ends (so they can name it as parent); Finish fills it in.
  int64_t Open(std::string name, double start_ms, int64_t parent,
               uint64_t request, uint32_t thread = 0) {
    return Add({std::move(name), start_ms, start_ms, parent, request,
                thread});
  }
  void Finish(int64_t index, double end_ms) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(index)].end_ms = end_ms;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per-span self time: the span's duration minus the part of its
/// interval that its children cover (overlapping children, such as
/// concurrent shard legs, count once).
inline std::vector<double> SelfMillis(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<size_t>(span.parent)].emplace_back(span.start_ms,
                                                              span.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_ms() -
              CoveredMillis(children[i], spans[i].start_ms, spans[i].end_ms);
  }
  return self;
}

/// Self time summed per span name, over spans whose root ancestor is
/// named `root` (so warm-up work outside the measured answers is left
/// out), plus the root spans' own totals.
struct LayerTimes {
  std::map<std::string, double> self_ms;
  double root_ms = 0.0;     ///< Sum of root span durations.
  double covered_ms = 0.0;  ///< Part of root time covered by children.
  size_t roots = 0;
};

inline LayerTimes SumLayers(const std::vector<Span>& spans,
                            const std::string& root) {
  const std::vector<double> self = SelfMillis(spans);
  LayerTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t top = i;
    while (spans[top].parent >= 0) top = static_cast<size_t>(spans[top].parent);
    if (spans[top].name != root) continue;
    if (top == i) {
      out.root_ms += spans[i].duration_ms();
      out.covered_ms += spans[i].duration_ms() - self[i];
      ++out.roots;
    } else {
      out.self_ms[spans[i].name] += self[i];
    }
  }
  return out;
}

/// Writes `spans` in the Chrome trace-event format (load in Perfetto or
/// chrome://tracing). Returns false when the file cannot be written.
inline bool WriteChromeJson(const std::vector<Span>& spans,
                            const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.thread,
                 s.start_ms * 1000.0, s.duration_ms() * 1000.0,
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench

#endif  // MUVE_PERFBENCH_HARNESS_H_
