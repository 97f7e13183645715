#include "serve/resolution_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace crowdjoin {
namespace {

ResolutionServiceOptions LowThreshold() {
  ResolutionServiceOptions options;
  options.threshold = 0.3;
  return options;
}

TEST(ResolutionService, IngestAssignsDenseIdsAndFindsNearDuplicates) {
  ResolutionService service(LowThreshold());
  const IngestResult first = service.Ingest("efficient crowdsourcing joins");
  EXPECT_EQ(first.id, 0);
  EXPECT_TRUE(first.candidates.empty());  // empty corpus

  const IngestResult second =
      service.Ingest("efficient crowdsourcing of joins");
  EXPECT_EQ(second.id, 1);
  ASSERT_EQ(second.candidates.size(), 1u);
  EXPECT_EQ(second.candidates[0].id, 0);
  // Tokens: {efficient, crowdsourcing, joins} vs {efficient,
  // crowdsourcing, of, joins} -> J = 3/4.
  EXPECT_DOUBLE_EQ(second.candidates[0].similarity, 0.75);
  // Unlabeled records are their own clusters.
  EXPECT_EQ(second.candidates[0].cluster, 0);

  const IngestResult unrelated = service.Ingest("something else entirely");
  EXPECT_EQ(unrelated.id, 2);
  EXPECT_TRUE(unrelated.candidates.empty());
}

TEST(ResolutionService, LabelsMergeClustersAndTransitivityAnswers) {
  ResolutionService service(LowThreshold());
  service.Ingest("acm sigmod conference on management of data");
  service.Ingest("sigmod conference on management of data");
  service.Ingest("the acm sigmod conference on data management");
  service.Ingest("vldb journal");

  EXPECT_EQ(service.OnPairLabeled(0, 1, Label::kMatching),
            AddOutcome::kApplied);
  EXPECT_EQ(service.OnPairLabeled(1, 2, Label::kMatching),
            AddOutcome::kApplied);
  // Transitivity: (0, 2) needs no crowd question.
  EXPECT_EQ(service.DeducePair(0, 2), Deduction::kMatching);
  EXPECT_EQ(service.OnPairLabeled(0, 2, Label::kMatching),
            AddOutcome::kRedundant);
  EXPECT_EQ(service.OnPairLabeled(2, 3, Label::kNonMatching),
            AddOutcome::kApplied);
  EXPECT_EQ(service.DeducePair(1, 3), Deduction::kNonMatching);

  // All three merged records resolve to the canonical (smallest) id.
  EXPECT_EQ(service.ResolveCluster(0), 0);
  EXPECT_EQ(service.ResolveCluster(1), 0);
  EXPECT_EQ(service.ResolveCluster(2), 0);
  EXPECT_EQ(service.ResolveCluster(3), 3);

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.num_records, 4);
  EXPECT_EQ(stats.num_labels, 4);
  EXPECT_EQ(stats.num_clusters, 2);
  EXPECT_EQ(stats.num_conflicts, 0);
}

TEST(ResolutionService, IngestCandidatesCarryClusterAnnotations) {
  ResolutionService service(LowThreshold());
  service.Ingest("international conference on data engineering");
  service.Ingest("intl conference on data engineering");
  service.OnPairLabeled(0, 1, Label::kMatching);

  const IngestResult result =
      service.Ingest("conference on data engineering 2013");
  ASSERT_EQ(result.candidates.size(), 2u);
  // Both candidates belong to one cluster — one crowd question suffices.
  EXPECT_EQ(result.candidates[0].cluster, 0);
  EXPECT_EQ(result.candidates[1].cluster, 0);
}

TEST(ResolutionService, QueryCountsUnknownTokensInTheDenominator) {
  ResolutionService service(LowThreshold());
  service.Ingest("alpha beta");
  const std::vector<ServeCandidate> candidates =
      service.QueryCandidates("alpha beta gamma");
  ASSERT_EQ(candidates.size(), 1u);
  // {alpha, beta} vs {alpha, beta, gamma}: J = 2/3 even though "gamma" was
  // never interned.
  EXPECT_DOUBLE_EQ(candidates[0].similarity, 2.0 / 3.0);
}

TEST(ResolutionService, QueryDoesNotMutateTheCorpus) {
  ResolutionService service(LowThreshold());
  service.Ingest("alpha beta");
  const ServeStats before = service.Stats();
  for (int i = 0; i < 3; ++i) {
    service.QueryCandidates("alpha beta gamma delta");
    (void)service.ResolveCluster(0);
    (void)service.DeducePair(0, 1000);
  }
  const ServeStats after = service.Stats();
  EXPECT_EQ(after.num_records, before.num_records);
  EXPECT_EQ(after.num_labels, before.num_labels);
  // A repeat of the same query answers identically.
  const auto again = service.QueryCandidates("alpha beta gamma delta");
  ASSERT_EQ(again.size(), 1u);
  EXPECT_DOUBLE_EQ(again[0].similarity, 0.5);
}

TEST(ResolutionService, TopKAndThresholdBoundTheCandidateList) {
  ResolutionServiceOptions options;
  options.threshold = 0.5;
  options.top_k = 2;
  ResolutionService service(options);
  service.Ingest("a b c d");
  service.Ingest("a b c e");
  service.Ingest("a b c f");
  service.Ingest("a x y z");  // J = 1/7 vs the query below: cut by threshold

  const std::vector<ServeCandidate> candidates =
      service.QueryCandidates("a b c d");
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].id, 0);  // exact match first (J = 1)
  EXPECT_DOUBLE_EQ(candidates[0].similarity, 1.0);
  EXPECT_EQ(candidates[1].id, 1);  // tie between 1 and 2 broken by id
}

TEST(ResolutionService, UnseenIdsResolveAsSingletons) {
  ResolutionService service;
  EXPECT_EQ(service.ResolveCluster(12345), 12345);
  EXPECT_EQ(service.DeducePair(5, 6), Deduction::kUndeduced);
}

TEST(ResolutionService, ConflictPolicyFlowsThroughToTheGraph) {
  ResolutionServiceOptions options;
  options.threshold = 0.3;
  options.conflict_policy = ConflictPolicy::kTrustNew;
  ResolutionService service(options);
  service.Ingest("one record");
  service.Ingest("another record");
  service.OnPairLabeled(0, 1, Label::kNonMatching);
  EXPECT_EQ(service.OnPairLabeled(0, 1, Label::kMatching),
            AddOutcome::kConflict);
  // kTrustNew merged anyway.
  EXPECT_EQ(service.DeducePair(0, 1), Deduction::kMatching);
  EXPECT_EQ(service.Stats().num_conflicts, 1);
}

TEST(ResolutionService, NumLabelsDoesNotDependOnMetrics) {
  obs::MetricsRegistry registry;
  registry.SetEnabled(false);
  ResolutionServiceOptions options = LowThreshold();
  options.metrics = &registry;
  ResolutionService service(options);
  for (int i = 0; i < 4; ++i) service.Ingest("record " + std::to_string(i));
  service.OnPairLabeled(0, 1, Label::kMatching);
  service.OnPairLabeled(1, 2, Label::kNonMatching);
  service.OnPairLabeled(0, 1, Label::kMatching);  // redundant still counts
  EXPECT_EQ(service.Stats().num_labels, 3);
}

// Reader threads hammer the query/resolve/deduce surface while the writer
// ingests and labels — the suite runs under TSan in CI, so a data race in
// the graph/index locking fails here.
TEST(ResolutionService, ConcurrentReadersSeeConsistentSnapshots) {
  ResolutionService service(LowThreshold());
  const std::vector<std::string> corpus = {
      "sigmod conference on management of data",
      "acm sigmod conference management data",
      "very large data bases endowment",
      "proceedings of the vldb endowment",
      "international conference on data engineering",
      "icde international conference data engineering",
  };

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        const auto candidates =
            service.QueryCandidates(corpus[i % corpus.size()]);
        for (const ServeCandidate& c : candidates) {
          if (c.similarity <= 0.0 || c.similarity > 1.0) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
          // The canonical cluster id never exceeds the member id.
          if (service.ResolveCluster(c.id) > c.id) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++i;
      }
    });
  }

  for (int repeat = 0; repeat < 20; ++repeat) {
    std::vector<ObjectId> ids;
    for (const std::string& text : corpus) {
      ids.push_back(service.Ingest(text).id);
    }
    // Pair up the duplicates (0,1), (2,3), (4,5) of this batch.
    for (size_t k = 0; k + 1 < ids.size(); k += 2) {
      service.OnPairLabeled(ids[k], ids[k + 1], Label::kMatching);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  const ServeStats stats = service.Stats();
  EXPECT_EQ(stats.num_records, 120);
  EXPECT_EQ(stats.num_labels, 60);
}

// Every write is visible to readers once the writer's call returns: after
// the writer publishes k (release) behind its k-th OnPairLabeled, a reader
// that acquires k sees labels 1..k, and an ingested record is spanned as
// soon as Ingest returns. Label j ties record j to record 0: matching for
// odd j, non-matching for even j.
TEST(ResolutionService, ReadersSeeEveryLabelTheWriterReturnedFrom) {
  constexpr int kLabels = 150;
  ResolutionService service;
  service.Ingest("record 0");
  std::atomic<int> ingested{0};
  std::atomic<int> labeled{0};
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  auto fail = [&] { failures.fetch_add(1, std::memory_order_relaxed); };

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const int i = ingested.load(std::memory_order_acquire);
        if (service.Stats().num_records < i + 1) fail();
        const int k = labeled.load(std::memory_order_acquire);
        for (int j = 1; j <= k; ++j) {
          const bool matching = j % 2 == 1;
          if (service.DeducePair(0, j) !=
              (matching ? Deduction::kMatching : Deduction::kNonMatching)) {
            fail();
          }
          if (service.ResolveCluster(j) != (matching ? 0 : j)) fail();
        }
        if (service.Stats().num_labels < k) fail();
      }
    });
  }

  for (int k = 1; k <= kLabels; ++k) {
    const ObjectId id = service.Ingest("record " + std::to_string(k)).id;
    ASSERT_EQ(id, k);
    ingested.store(k, std::memory_order_release);
    service.OnPairLabeled(
        0, k, k % 2 == 1 ? Label::kMatching : Label::kNonMatching);
    labeled.store(k, std::memory_order_release);
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.Stats().num_labels, kLabels);
}

}  // namespace
}  // namespace crowdjoin
