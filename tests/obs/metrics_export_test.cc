// Golden tests for the JSON export. The exact string is part of the
// contract: CI parses the JSON with python, so formatting drift is a real
// break, not cosmetics.

#include <gtest/gtest.h>

#include <string>

#include "obs/metrics.h"

namespace crowdjoin::obs {
namespace {

// One registry with one metric of each kind, deterministic values.
void FillFixture(MetricsRegistry& registry) {
  registry.GetCounter("session.oracle_calls_total")->Inc(42);
  registry.GetGauge("pool.queue_depth")->Set(3);
  Histogram* hist = registry.GetHistogram("serve.query_latency_us");
  hist->Observe(1);   // bucket le=1
  hist->Observe(5);   // bucket le=7
  hist->Observe(6);   // bucket le=7
}

TEST(JsonExport, GoldenOutput) {
  MetricsRegistry registry;
  FillFixture(registry);
  const std::string expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"session.oracle_calls_total\": 42\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"pool.queue_depth\": 3\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"serve.query_latency_us\": {\"count\": 3, \"sum\": 12, "
      "\"buckets\": [{\"le\": 1, \"count\": 1}, {\"le\": 7, \"count\": "
      "2}]}\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(registry.Snapshot().ToJson(), expected);
}

TEST(JsonExport, EmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

}  // namespace
}  // namespace crowdjoin::obs
