// Golden pin of the four simulated AMT campaigns. Each `Run*Amt` entry runs
// on one small slice of the seed-42 Paper workbench, once on a reliable
// marketplace and once under a fault plan (abandonment, HIT expiry, flaky
// publishes, quorum re-asks), and every `AmtRunStats` field is pinned
// exactly: counts, hours and cents as hexfloat doubles, and an FNV-1a
// checksum of the final labels. Any drift in publication, the HIT pump or
// the labeling session shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/labeling_order.h"
#include "crowd/orchestrator.h"
#include "datagen/dataset.h"
#include "eval/workbench.h"

namespace crowdjoin {
namespace {

// FNV-1a over the final labels, one byte per pair.
uint64_t LabelChecksum(const std::vector<Label>& labels) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const Label label : labels) {
    hash ^= static_cast<uint8_t>(label);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// Every AmtRunStats field on one line; doubles in hexfloat, so equal
// strings mean bit-equal values.
std::string Describe(const AmtRunStats& stats) {
  char line[512];
  std::snprintf(
      line, sizeof(line),
      "hits=%lld assignments=%lld hours=%a cents=%a crowdsourced=%lld "
      "deduced=%lld labels=%zu fnv=%016llx publish_retries=%lld "
      "reposted=%lld reasks=%lld abandoned=%lld expired=%lld",
      static_cast<long long>(stats.num_hits),
      static_cast<long long>(stats.num_assignments), stats.total_hours,
      stats.total_cost_cents,
      static_cast<long long>(stats.num_crowdsourced_pairs),
      static_cast<long long>(stats.num_deduced_pairs),
      stats.final_labels.size(),
      static_cast<unsigned long long>(LabelChecksum(stats.final_labels)),
      static_cast<long long>(stats.num_publish_retries),
      static_cast<long long>(stats.num_hits_reposted),
      static_cast<long long>(stats.num_reask_hits),
      static_cast<long long>(stats.num_assignments_abandoned),
      static_cast<long long>(stats.num_hits_expired));
  return line;
}

struct Slice {
  CandidateSet pairs;
  std::vector<int32_t> order;
  GroundTruthOracle truth{std::vector<int32_t>{}};
};

// The first 400 seed-42 Paper candidates at likelihood >= 0.4, in the
// expected (likelihood) order.
const Slice& GoldenSlice() {
  static const Slice slice = [] {
    const ExperimentInput input = MakePaperExperimentInput(42).value();
    Slice s;
    s.truth = MakeGroundTruthOracle(input.dataset);
    s.pairs = FilterByThreshold(input.candidates, 0.4);
    s.pairs.resize(std::min<size_t>(s.pairs.size(), 400));
    s.order = MakeLabelingOrder(s.pairs, OrderKind::kExpected, &s.truth,
                                /*rng=*/nullptr)
                  .value();
    return s;
  }();
  return slice;
}

// Noisy workers, so majority votes and re-asks have something to decide.
CrowdConfig ReliableConfig() {
  CrowdConfig config;
  config.seed = 42;
  config.false_negative_rate = 0.1;
  config.false_positive_rate = 0.05;
  return config;
}

CrowdConfig FaultedConfig() {
  CrowdConfig config = ReliableConfig();
  config.faults.seed = 9;
  config.faults.abandonment_rate = 0.2;
  config.faults.straggler_rate = 0.3;
  config.faults.hit_expiry_hours = 1.5;
  config.faults.publish_failure_rate = 0.1;
  config.retry.reask_margin = 1;
  return config;
}

struct Golden {
  const char* reliable;
  const char* faulted;
};

using Campaign = Result<AmtRunStats> (*)(const Slice&, const CrowdConfig&);

void ExpectGolden(Campaign run, const Golden& golden) {
  const Slice& slice = GoldenSlice();
  EXPECT_EQ(Describe(run(slice, ReliableConfig()).value()), golden.reliable);
  EXPECT_EQ(Describe(run(slice, FaultedConfig()).value()), golden.faulted);
}

TEST(CampaignGolden, NonTransitive) {
  ExpectGolden(
      [](const Slice& s, const CrowdConfig& c) {
        return RunNonTransitiveAmt(s.pairs, c, s.truth);
      },
      {"hits=20 assignments=60 hours=0x1.bdc6b8b944762p+1 "
       "cents=0x1.ep+6 crowdsourced=400 deduced=0 labels=400 "
       "fnv=d182a5ca56ee00ec publish_retries=0 reposted=0 reasks=0 "
       "abandoned=0 expired=0",
       "hits=85 assignments=25 hours=0x1.82115d04f9aabp+3 "
       "cents=0x1.9p+5 crowdsourced=400 deduced=0 labels=400 "
       "fnv=32abd946eb90036a publish_retries=11 reposted=60 reasks=5 "
       "abandoned=3 expired=80"});
}

TEST(CampaignGolden, Transitive) {
  ExpectGolden(
      [](const Slice& s, const CrowdConfig& c) {
        return RunTransitiveAmt(s.pairs, s.order, c, s.truth);
      },
      {"hits=10 assignments=30 hours=0x1.aca23f629274bp+1 "
       "cents=0x1.ep+5 crowdsourced=185 deduced=215 labels=400 "
       "fnv=5cf16acc333ad32d publish_retries=0 reposted=0 reasks=0 "
       "abandoned=0 expired=0",
       "hits=29 assignments=76 hours=0x1.0e010ce43230cp+3 "
       "cents=0x1.3p+7 crowdsourced=185 deduced=215 labels=400 "
       "fnv=b97416beb3348993 publish_retries=6 reposted=9 reasks=10 "
       "abandoned=20 expired=9"});
}

TEST(CampaignGolden, NonParallel) {
  ExpectGolden(
      [](const Slice& s, const CrowdConfig& c) {
        return RunNonParallelAmt(s.pairs, s.order, c, s.truth);
      },
      {"hits=10 assignments=30 hours=0x1.80a7ab4857fedp+3 "
       "cents=0x1.ep+5 crowdsourced=185 deduced=215 labels=400 "
       "fnv=e4cb3531086301b8 publish_retries=0 reposted=0 reasks=0 "
       "abandoned=0 expired=0",
       "hits=25 assignments=70 hours=0x1.f50d294bc4ddcp+4 "
       "cents=0x1.18p+7 crowdsourced=185 deduced=215 labels=400 "
       "fnv=e4cb3531086301b8 publish_retries=5 reposted=5 reasks=10 "
       "abandoned=8 expired=5"});
}

TEST(CampaignGolden, Parallel) {
  ExpectGolden(
      [](const Slice& s, const CrowdConfig& c) {
        return RunParallelAmt(s.pairs, s.order, c, s.truth);
      },
      {"hits=10 assignments=30 hours=0x1.0d9586a60ff3ap+1 "
       "cents=0x1.ep+5 crowdsourced=185 deduced=215 labels=400 "
       "fnv=cb7c661fb9af3514 publish_retries=0 reposted=0 reasks=0 "
       "abandoned=0 expired=0",
       "hits=43 assignments=102 hours=0x1.be63767f41d04p+3 "
       "cents=0x1.98p+7 crowdsourced=186 deduced=214 labels=400 "
       "fnv=613441fa4f17d9d1 publish_retries=6 reposted=22 reasks=10 "
       "abandoned=33 expired=22"});
}

}  // namespace
}  // namespace crowdjoin
