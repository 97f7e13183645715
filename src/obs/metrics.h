#ifndef CROWDJOIN_OBS_METRICS_H_
#define CROWDJOIN_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Process-wide metrics: named Counter / Gauge / Histogram handles owned by
/// a MetricsRegistry. The design goals, in order:
///
///  1. Hot-path writes never contend. Counters are striped across
///     cache-line-aligned per-thread slots updated with relaxed atomics, so
///     N threads incrementing the same counter touch N different lines.
///  2. A disabled registry costs one relaxed load + branch per write.
///  3. Reads are rare and may be slow: `Snapshot()` walks every handle
///     under the registration mutex and returns a consistent, name-sorted
///     view exportable as JSON.
///
/// `obs` sits below `common` in the module order (common links obs so the
/// ThreadPool can be instrumented), so nothing here may include common
/// headers.

namespace crowdjoin::obs {

/// Monotonic nanoseconds since the first call in this process. Shared by
/// latency timers and trace spans so both report on the same clock.
int64_t NowNs();

/// Number of per-thread stripes in a Counter. Threads hash onto stripes
/// round-robin; 16 stripes absorb far more writer threads than that before
/// any line is shared.
inline constexpr int kCounterStripes = 16;

/// Number of log2 buckets in a Histogram: bucket 0 holds values <= 0,
/// bucket i (i >= 1) holds values in [2^(i-1), 2^i - 1].
inline constexpr int kHistogramBuckets = 64;

namespace internal {
/// The enabled flag standalone (registry-less) metrics bind to.
const std::atomic<bool>& AlwaysEnabled();
}  // namespace internal

/// Monotonically increasing sum, striped per thread. Create standalone (for
/// tests) or via MetricsRegistry::GetCounter. Handles returned by a registry
/// are valid for the registry's lifetime; the global registry never dies.
class Counter {
 public:
  Counter() : enabled_(&internal::AlwaysEnabled()) {}
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(int64_t delta = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    slots_[ThreadStripe()].value.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Sum over all stripes. Concurrent increments may or may not be visible;
  /// the value is exact once writers are quiescent.
  int64_t Value() const {
    int64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<int64_t> value{0};
  };

  static int ThreadStripe() {
    static std::atomic<uint32_t> next_stripe{0};
    thread_local const int stripe = static_cast<int>(
        next_stripe.fetch_add(1, std::memory_order_relaxed) % kCounterStripes);
    return stripe;
  }

  const std::atomic<bool>* enabled_;
  std::array<Slot, kCounterStripes> slots_;
};

/// Last-writer-wins instantaneous value with relaxed add/set. One atomic is
/// enough: gauges track things like queue depth where the write rate is a
/// task enqueue, not a per-element hot loop.
class Gauge {
 public:
  Gauge() : enabled_(&internal::AlwaysEnabled()) {}
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

/// Fixed-log-bucket distribution: 64 power-of-two buckets plus a running
/// count and sum, all relaxed atomics. Bucket resolution (2x) is coarse on
/// purpose — latency histograms care about orders of magnitude, and a fixed
/// layout means zero allocation and trivially mergeable snapshots.
class Histogram {
 public:
  Histogram() : enabled_(&internal::AlwaysEnabled()) {}
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  bool enabled() const { return enabled_->load(std::memory_order_relaxed); }

  void Observe(int64_t value) {
    if (!enabled()) return;
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value > 0 ? value : 0, std::memory_order_relaxed);
  }

  /// Bucket for `value`: 0 for value <= 0, else bit_width(value), i.e. the
  /// bucket whose inclusive range is [2^(i-1), 2^i - 1].
  static int BucketIndex(int64_t value) {
    if (value <= 0) return 0;
    return std::bit_width(static_cast<uint64_t>(value));
  }

  /// Inclusive upper bound of bucket `index` (INT64_MAX for the last one).
  static int64_t BucketUpperBound(int index);

  int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t BucketCount(int index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

 private:
  const std::atomic<bool>* enabled_;
  std::array<std::atomic<int64_t>, kHistogramBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Observes the elapsed wall time, in microseconds, between construction and
/// destruction into `hist`. The clock is only read when the histogram is
/// enabled at construction time, so a disabled registry pays one branch.
class ScopedLatencyUs {
 public:
  explicit ScopedLatencyUs(Histogram* hist)
      : hist_(hist != nullptr && hist->enabled() ? hist : nullptr),
        start_ns_(hist_ != nullptr ? NowNs() : 0) {}
  ~ScopedLatencyUs() {
    if (hist_ != nullptr) hist_->Observe((NowNs() - start_ns_) / 1000);
  }

  ScopedLatencyUs(const ScopedLatencyUs&) = delete;
  ScopedLatencyUs& operator=(const ScopedLatencyUs&) = delete;

 private:
  Histogram* hist_;
  int64_t start_ns_;
};

struct CounterSample {
  std::string name;
  int64_t value = 0;
};

struct GaugeSample {
  std::string name;
  int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
  std::array<int64_t, kHistogramBuckets> buckets{};
};

/// A point-in-time, name-sorted view of every metric in a registry.
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  /// Lookup helpers for tests and harness assertions; nullptr when absent.
  const CounterSample* FindCounter(std::string_view name) const;
  const GaugeSample* FindGauge(std::string_view name) const;
  const HistogramSample* FindHistogram(std::string_view name) const;

  /// Pretty-printed JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, buckets: [{le, count}...]}}}.
  /// Histogram buckets are emitted sparsely (non-empty only), with
  /// inclusive upper bounds.
  std::string ToJson() const;
};

/// Owns named metric handles. Registration (GetCounter etc.) takes a mutex
/// and is expected at setup time; the returned handles are pointer-stable
/// for the registry's lifetime and lock-free to write. Re-requesting a name
/// returns the same handle; requesting a registered name as a different
/// metric kind aborts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry all library instrumentation writes to.
  /// Enabled by default; disabling is the opt-out for overhead studies.
  static MetricsRegistry& Global();

  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Names must match [A-Za-z0-9._-]+ (checked; keeps both exports sane).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (handles stay valid). Test/bench hook;
  /// racing writers may leave residue, so quiesce first.
  void ResetForTesting();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct CounterEntry {
    std::string name;
    Counter counter;
    CounterEntry(std::string n, const std::atomic<bool>* enabled)
        : name(std::move(n)), counter(enabled) {}
  };
  struct GaugeEntry {
    std::string name;
    Gauge gauge;
    GaugeEntry(std::string n, const std::atomic<bool>* enabled)
        : name(std::move(n)), gauge(enabled) {}
  };
  struct HistogramEntry {
    std::string name;
    Histogram histogram;
    HistogramEntry(std::string n, const std::atomic<bool>* enabled)
        : name(std::move(n)), histogram(enabled) {}
  };

  /// Aborts on invalid names and cross-kind collisions.
  void CheckNameLocked(std::string_view name, Kind kind) const;

  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  // deques: growth never moves existing entries, so handles stay valid.
  std::deque<CounterEntry> counters_;
  std::deque<GaugeEntry> gauges_;
  std::deque<HistogramEntry> histograms_;
};

}  // namespace crowdjoin::obs

#endif  // CROWDJOIN_OBS_METRICS_H_
