#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace crowdjoin::obs {

namespace {

[[noreturn]] void ObsFatal(const char* what, std::string_view name) {
  std::fprintf(stderr, "[obs] fatal: %s ('%.*s')\n", what,
               static_cast<int>(name.size()), name.data());
  std::abort();
}

bool ValidMetricName(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void AppendInt(std::string* out, int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  out->append(buf);
}

}  // namespace

int64_t NowNs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace internal {
const std::atomic<bool>& AlwaysEnabled() {
  static const std::atomic<bool> enabled{true};
  return enabled;
}
}  // namespace internal

int64_t Histogram::BucketUpperBound(int index) {
  if (index <= 0) return 0;
  if (index >= kHistogramBuckets - 1) {
    return std::numeric_limits<int64_t>::max();
  }
  return (int64_t{1} << index) - 1;
}

MetricsRegistry& MetricsRegistry::Global() {
  // Leaked: detached threads may still increment handles during process
  // teardown, so the registry must outlive static destruction.
  static MetricsRegistry* const global = new MetricsRegistry();
  return *global;
}

void MetricsRegistry::CheckNameLocked(std::string_view name, Kind kind) const {
  if (!ValidMetricName(name)) ObsFatal("invalid metric name", name);
  const auto collides = [&](auto& entries, Kind entries_kind) {
    if (kind == entries_kind) return;
    for (const auto& entry : entries) {
      if (entry.name == name) {
        ObsFatal("metric name registered as a different kind", name);
      }
    }
  };
  collides(counters_, Kind::kCounter);
  collides(gauges_, Kind::kGauge);
  collides(histograms_, Kind::kHistogram);
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (CounterEntry& entry : counters_) {
    if (entry.name == name) return &entry.counter;
  }
  CheckNameLocked(name, Kind::kCounter);
  return &counters_.emplace_back(std::string(name), &enabled_).counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (GaugeEntry& entry : gauges_) {
    if (entry.name == name) return &entry.gauge;
  }
  CheckNameLocked(name, Kind::kGauge);
  return &gauges_.emplace_back(std::string(name), &enabled_).gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (HistogramEntry& entry : histograms_) {
    if (entry.name == name) return &entry.histogram;
  }
  CheckNameLocked(name, Kind::kHistogram);
  return &histograms_.emplace_back(std::string(name), &enabled_).histogram;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const CounterEntry& entry : counters_) {
    snapshot.counters.push_back({entry.name, entry.counter.Value()});
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const GaugeEntry& entry : gauges_) {
    snapshot.gauges.push_back({entry.name, entry.gauge.Value()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const HistogramEntry& entry : histograms_) {
    HistogramSample sample;
    sample.name = entry.name;
    sample.count = entry.histogram.Count();
    sample.sum = entry.histogram.Sum();
    for (int b = 0; b < kHistogramBuckets; ++b) {
      sample.buckets[static_cast<size_t>(b)] = entry.histogram.BucketCount(b);
    }
    snapshot.histograms.push_back(std::move(sample));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snapshot.counters.begin(), snapshot.counters.end(), by_name);
  std::sort(snapshot.gauges.begin(), snapshot.gauges.end(), by_name);
  std::sort(snapshot.histograms.begin(), snapshot.histograms.end(), by_name);
  return snapshot;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  // The handles have no reset API on purpose (counters are monotone by
  // contract); rebuild them in place instead.
  for (CounterEntry& entry : counters_) {
    entry.counter.~Counter();
    new (&entry.counter) Counter(&enabled_);
  }
  for (GaugeEntry& entry : gauges_) {
    entry.gauge.~Gauge();
    new (&entry.gauge) Gauge(&enabled_);
  }
  for (HistogramEntry& entry : histograms_) {
    entry.histogram.~Histogram();
    new (&entry.histogram) Histogram(&enabled_);
  }
}

const CounterSample* MetricsSnapshot::FindCounter(std::string_view name) const {
  for (const CounterSample& sample : counters) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::FindGauge(std::string_view name) const {
  for (const GaugeSample& sample : gauges) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    std::string_view name) const {
  for (const HistogramSample& sample : histograms) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + counters[i].name + "\": ";
    AppendInt(&out, counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + gauges[i].name + "\": ";
    AppendInt(&out, gauges[i].value);
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"" + h.name + "\": {\"count\": ";
    AppendInt(&out, h.count);
    out += ", \"sum\": ";
    AppendInt(&out, h.sum);
    out += ", \"buckets\": [";
    bool first = true;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      const int64_t n = h.buckets[static_cast<size_t>(b)];
      if (n == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += "{\"le\": ";
      AppendInt(&out, Histogram::BucketUpperBound(b));
      out += ", \"count\": ";
      AppendInt(&out, n);
      out += "}";
    }
    out += "]}";
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace crowdjoin::obs
