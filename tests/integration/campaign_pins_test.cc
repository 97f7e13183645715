// Seed-42 pins of the paper's effect at scale: the SF 10 streaming campaign
// (50,325 candidates labeled with 7,905 crowd asks in 9 Algorithm-2 rounds)
// and the SF 1 resolution service (6,258 candidates, 928 labels, 70
// clusters). Each case drives one public entry point in-process and checks
// the exact counts plus the obs counters they export, so a change to what
// the join emits, what the session asks, or what the metrics record fails
// here. The counts are independent of the thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "crowd/orchestrator.h"
#include "datagen/streaming_generator.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "serve/resolution_service.h"
#include "simjoin/candidate_generator.h"

namespace crowdjoin {
namespace {

constexpr uint64_t kSeed = 42;
constexpr int kThreads = 4;
constexpr int kShards = 16;
constexpr int32_t kCampaignScale = 10;
constexpr int64_t kTasksPerRound = 16;

// The SF 10 Jaccard 0.7 campaign.
constexpr int64_t kCandidates = 50325;
constexpr int64_t kOracleCalls = 7905;
constexpr int64_t kDeduced = 42420;
constexpr int64_t kRounds = 9;

PaperDatasetConfig PaperConfig() {
  PaperDatasetConfig config;
  config.seed = kSeed;
  return config;
}

StreamingCampaignConfig RoundByRound(MeasureKind measure, double threshold) {
  StreamingCampaignConfig config;
  config.candidates.measure = measure;
  config.candidates.token_join_threshold = threshold;
  config.candidates.min_likelihood = threshold;
  config.sharding.num_threads = kThreads;
  config.sharding.num_shards = kShards;
  config.crowd.num_threads = kThreads;
  config.label_tasks_per_round = kTasksPerRound;
  return config;
}

// 5% assignment abandonment masked by up to four attempts per ask.
StreamingCampaignConfig Faulted() {
  StreamingCampaignConfig config = RoundByRound(MeasureKind::kJaccard, 0.7);
  config.crowd.faults.seed = 7;
  config.crowd.faults.abandonment_rate = 0.05;
  config.crowd.retry.max_attempts = 4;
  return config;
}

StreamingCampaignStats RunCampaign(const StreamingCampaignConfig& config) {
  StreamingPaperSource source(PaperConfig(), kCampaignScale);
  auto stats = RunStreamingCampaign(source, /*scorer=*/nullptr, config);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  return stats.ok() ? std::move(stats).value() : StreamingCampaignStats{};
}

int64_t CounterIn(const obs::MetricsSnapshot& snapshot,
                  std::string_view name) {
  const obs::CounterSample* sample = snapshot.FindCounter(name);
  return sample == nullptr ? 0 : sample->value;
}

obs::HistogramSample HistogramIn(const obs::MetricsSnapshot& snapshot,
                                 std::string_view name) {
  const obs::HistogramSample* sample = snapshot.FindHistogram(name);
  return sample == nullptr ? obs::HistogramSample{} : *sample;
}

// What a run added to the process-wide registry: other runs in the same
// process count there too, so pins are differences of snapshots.
class MetricsDelta {
 public:
  MetricsDelta() : before_(obs::MetricsRegistry::Global().Snapshot()) {}

  // Freezes the "after" side; call once the run has returned.
  void Stop() { after_ = obs::MetricsRegistry::Global().Snapshot(); }

  int64_t Counter(std::string_view name) const {
    return CounterIn(after_, name) - CounterIn(before_, name);
  }
  int64_t HistogramCount(std::string_view name) const {
    return HistogramIn(after_, name).count - HistogramIn(before_, name).count;
  }
  int64_t HistogramSum(std::string_view name) const {
    return HistogramIn(after_, name).sum - HistogramIn(before_, name).sum;
  }

 private:
  obs::MetricsSnapshot before_;
  obs::MetricsSnapshot after_;
};

// The five session counters every SF 10 Jaccard campaign must export,
// faulted or not, resumed or not.
void ExpectSessionPins(const MetricsDelta& delta) {
  EXPECT_EQ(delta.Counter("session.candidates_total"), kCandidates);
  EXPECT_EQ(delta.Counter("session.oracle_calls_total"), kOracleCalls);
  EXPECT_EQ(delta.Counter("session.deduced_total"), kDeduced);
  EXPECT_EQ(delta.Counter("session.rounds_total"), kRounds);
  EXPECT_EQ(delta.Counter("session.conflicts_total"), 0);
}

size_t CountOccurrences(std::string_view haystack, std::string_view needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string_view::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

TEST(CampaignPins, Sf10JoinEmitsPinnedCandidates) {
  // The campaign's machine step alone, materialized, on one worker and on
  // four. Its work counters are functions of the input alone: each repeats
  // exactly, and every candidate was first met as a posting.
  StreamingCampaignConfig config = RoundByRound(MeasureKind::kJaccard, 0.7);
  std::vector<int64_t> visits;
  std::vector<int64_t> gathered;
  for (const int threads : {1, kThreads}) {
    config.sharding.num_threads = threads;
    StreamingPaperSource source(PaperConfig(), kCampaignScale);
    MetricsDelta delta;
    const auto candidates = GenerateCandidatesStreaming(
        source, /*scorer=*/nullptr, config.candidates, config.sharding);
    delta.Stop();
    ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
    EXPECT_EQ(static_cast<int64_t>(candidates->size()), kCandidates);
    EXPECT_EQ(delta.Counter("simjoin.pairs_emitted_total"), kCandidates);
    visits.push_back(delta.Counter("simjoin.posting_visits_total"));
    gathered.push_back(delta.Counter("simjoin.prefilter_candidates_total"));
    EXPECT_GE(visits.back(), gathered.back()) << threads << " threads";
    EXPECT_GE(gathered.back(), kCandidates) << threads << " threads";
  }
  EXPECT_EQ(visits[0], visits[1]);
  EXPECT_EQ(gathered[0], gathered[1]);
}

TEST(CampaignPins, Sf10RoundByRoundCampaignExportsPinnedCountersAndTrace) {
  obs::TraceRecorder& trace = obs::TraceRecorder::Global();
  const bool was_tracing = trace.enabled();
  trace.Clear();
  trace.SetEnabled(true);
  MetricsDelta delta;
  const StreamingCampaignStats stats =
      RunCampaign(RoundByRound(MeasureKind::kJaccard, 0.7));
  delta.Stop();
  trace.SetEnabled(was_tracing);

  EXPECT_EQ(stats.num_candidates, kCandidates);
  ExpectSessionPins(delta);
  EXPECT_EQ(delta.Counter("simjoin.pairs_emitted_total"), kCandidates);

  const std::string json = trace.ToChromeTraceJson();
  trace.Clear();
  const size_t num_events = CountOccurrences(json, "{\"name\": ");
  EXPECT_GT(num_events, 0u);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"X\""), num_events);
  EXPECT_EQ(CountOccurrences(json, "\"ph\": "), num_events);
  EXPECT_NE(json.find("\"name\": \"session.round\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"simjoin.probe_task\""), std::string::npos);
}

TEST(CampaignPins, Sf10FaultedCampaignMasksAbandonment) {
  MetricsDelta delta;
  const StreamingCampaignStats stats = RunCampaign(Faulted());
  delta.Stop();

  // Retries mask every transient fault: the same questions, the same
  // labels as the fault-free campaign...
  EXPECT_EQ(stats.num_candidates, kCandidates);
  ExpectSessionPins(delta);
  // ...and the faults really fired: some asks needed retries, and every
  // crowdsourced ask recorded its attempt count.
  EXPECT_GT(delta.Counter("crowd.hits_retried_total"), 0);
  EXPECT_EQ(delta.HistogramCount("crowd.hit_attempts"), kOracleCalls);
  EXPECT_GT(delta.HistogramSum("crowd.hit_attempts"), kOracleCalls);
}

TEST(CampaignPinsDeathTest, Sf10KilledCampaignResumesToPinnedCounters) {
  // The threadsafe style re-executes the binary for the child, so the
  // child gets its own generator pool instead of a fork's dead one.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = ::testing::TempDir() + "cj_campaign_pins.ckpt";
  std::remove(path.c_str());
  StreamingCampaignConfig config = Faulted();
  config.checkpoint.path = path;
  config.checkpoint.fingerprint = Fingerprint64("campaign_pins|sf10|faulted");

  // A hard crash right after the round-4 checkpoint lands: no destructors,
  // no flushing; only the file survives.
  StreamingCampaignConfig doomed = config;
  doomed.checkpoint.after_write = [](int64_t completed_rounds) {
    if (completed_rounds >= 4) {
      std::fflush(nullptr);
      std::raise(SIGKILL);
    }
  };
  EXPECT_EXIT(RunCampaign(doomed), ::testing::KilledBySignal(SIGKILL), "");
  const auto written = ReadFileToString(path);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_FALSE(written->empty());

  // Resumed from the file, the campaign lands on the uninterrupted
  // faulted run's counters.
  MetricsDelta delta;
  const StreamingCampaignStats stats = RunCampaign(config);
  delta.Stop();
  EXPECT_EQ(stats.num_candidates, kCandidates);
  ExpectSessionPins(delta);
  EXPECT_EQ(delta.Counter("session.checkpoint_resumes_total"), 1);
  EXPECT_GT(delta.Counter("session.checkpoints_written_total"), 0);
  std::remove(path.c_str());
}

TEST(CampaignPins, Sf10EditDistanceCampaignEmitsPinnedCandidates) {
  // The q-gram prefix filter, fallback bucket and banded verifier of the
  // edit measure, streamed round by round. The tight threshold keeps the
  // q-gram filter selective.
  const StreamingCampaignStats stats =
      RunCampaign(RoundByRound(MeasureKind::kEditDistance, 0.9));
  EXPECT_EQ(stats.num_candidates, 16761);
}

TEST(CampaignPins, Sf1ServingPinsWriterStateBesideConcurrentReaders) {
  // Materialize the corpus first: readers query its texts while the writer
  // ingests them.
  StreamingPaperSource source(PaperConfig(), /*scale_factor=*/1);
  std::vector<std::string> texts;
  std::vector<int32_t> entities;
  StreamedRecord streamed;
  while (source.Next(&streamed)) {
    std::string text;
    for (const std::string& field : streamed.record.fields) {
      text += field;
      text += ' ';
    }
    texts.push_back(std::move(text));
    entities.push_back(streamed.entity);
  }
  ASSERT_TRUE(source.status().ok());
  ASSERT_EQ(texts.size(), 997u);

  ResolutionServiceOptions options;
  options.threshold = 0.5;
  options.top_k = 10;
  ResolutionService service(options);

  // Two readers, each walking the corpus from its own offset. do/while so
  // every reader issues at least one query however fast the writer is.
  constexpr size_t kReaders = 2;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      size_t pos = t * texts.size() / kReaders;
      do {
        for (const ServeCandidate& c : service.QueryCandidates(texts[pos])) {
          (void)service.ResolveCluster(c.id);
        }
        pos = pos + 1 == texts.size() ? 0 : pos + 1;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  // The writer answers each ingest's still-undecided pairs from ground
  // truth; transitivity answers the rest.
  int64_t total_candidates = 0;
  int64_t total_labels = 0;
  for (const std::string& text : texts) {
    const IngestResult result = service.Ingest(text);
    total_candidates += static_cast<int64_t>(result.candidates.size());
    for (const ServeCandidate& c : result.candidates) {
      if (service.DeducePair(result.id, c.id) != Deduction::kUndeduced) {
        continue;
      }
      const Label label = entities[static_cast<size_t>(result.id)] ==
                                  entities[static_cast<size_t>(c.id)]
                              ? Label::kMatching
                              : Label::kNonMatching;
      service.OnPairLabeled(result.id, c.id, label);
      ++total_labels;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(total_candidates, 6258);
  EXPECT_EQ(total_labels, 928);
  EXPECT_EQ(service.Stats().num_clusters, 70);

  // The service's private registry holds only this run's counts.
  const obs::MetricsSnapshot snapshot = service.metrics().Snapshot();
  const int64_t queries = CounterIn(snapshot, "serve.queries_total");
  EXPECT_EQ(CounterIn(snapshot, "serve.ingests_total"), 997);
  EXPECT_EQ(CounterIn(snapshot, "serve.ingest_candidates_total"), 6258);
  EXPECT_EQ(CounterIn(snapshot, "serve.labels_total"), 928);
  EXPECT_GT(queries, 0);
  EXPECT_EQ(HistogramIn(snapshot, "serve.ingest_latency_us").count, 997);
  EXPECT_EQ(HistogramIn(snapshot, "serve.candidates_per_query").count,
            queries);
}

}  // namespace
}  // namespace crowdjoin
