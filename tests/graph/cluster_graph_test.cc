#include "graph/cluster_graph.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace crowdjoin {
namespace {

constexpr Label kM = Label::kMatching;
constexpr Label kN = Label::kNonMatching;

// Example 1 / Figure 2: seven labeled pairs over o1..o7 (0-indexed here).
// Matching: (o1,o2) (o3,o4) (o4,o5); non-matching: (o1,o6) (o2,o3) (o3,o7)
// (o5,o6).
class Example1Graph : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_.Reset(7);
    ASSERT_EQ(graph_.Add(0, 1, kM), AddOutcome::kApplied);
    ASSERT_EQ(graph_.Add(2, 3, kM), AddOutcome::kApplied);
    ASSERT_EQ(graph_.Add(3, 4, kM), AddOutcome::kApplied);
    ASSERT_EQ(graph_.Add(0, 5, kN), AddOutcome::kApplied);
    ASSERT_EQ(graph_.Add(1, 2, kN), AddOutcome::kApplied);
    ASSERT_EQ(graph_.Add(2, 6, kN), AddOutcome::kApplied);
    ASSERT_EQ(graph_.Add(4, 5, kN), AddOutcome::kApplied);
  }
  ClusterGraph graph_{7};
};

TEST_F(Example1Graph, PositiveTransitivity) {
  // (o3,o5): all-matching path o3->o4->o5.
  EXPECT_EQ(graph_.Deduce(2, 4), Deduction::kMatching);
}

TEST_F(Example1Graph, NegativeTransitivity) {
  // (o5,o7): path o5->o4->o3->o7 with a single non-matching pair.
  EXPECT_EQ(graph_.Deduce(4, 6), Deduction::kNonMatching);
}

TEST_F(Example1Graph, UndeducedWhenEveryPathHasTwoNonMatchingPairs) {
  // (o1,o7): both paths carry more than one non-matching pair.
  EXPECT_EQ(graph_.Deduce(0, 6), Deduction::kUndeduced);
}

TEST_F(Example1Graph, DeduceIsSymmetric) {
  EXPECT_EQ(graph_.Deduce(4, 2), Deduction::kMatching);
  EXPECT_EQ(graph_.Deduce(6, 4), Deduction::kNonMatching);
  EXPECT_EQ(graph_.Deduce(6, 0), Deduction::kUndeduced);
}

// Example 3 / Figure 6: first seven labeled pairs of the running example.
TEST(ClusterGraphExample3, DeducesP8AsNonMatching) {
  // o1,o2,o3 matching cluster; o4,o5 matching cluster; o6 singleton.
  // Non-matching: (o1,o6), (o4,o6), (o2,o4).  Check p8 = (o5,o6).
  ClusterGraph graph(6);
  EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kApplied);  // p1
  EXPECT_EQ(graph.Add(1, 2, kM), AddOutcome::kApplied);  // p2
  EXPECT_EQ(graph.Add(0, 5, kN), AddOutcome::kApplied);  // p3
  EXPECT_EQ(graph.Add(0, 2, kM), AddOutcome::kRedundant);  // p4 (deduced)
  EXPECT_EQ(graph.Add(3, 4, kM), AddOutcome::kApplied);  // p5
  EXPECT_EQ(graph.Add(3, 5, kN), AddOutcome::kApplied);  // p6
  EXPECT_EQ(graph.Add(1, 3, kN), AddOutcome::kApplied);  // p7
  EXPECT_EQ(graph.Deduce(4, 5), Deduction::kNonMatching);  // p8
  EXPECT_EQ(graph.num_clusters(), 3);
  EXPECT_EQ(graph.num_edges(), 3);
}

TEST(ClusterGraph, EmptyGraphDeducesNothing) {
  ClusterGraph graph(4);
  EXPECT_EQ(graph.Deduce(0, 1), Deduction::kUndeduced);
  EXPECT_EQ(graph.num_clusters(), 4);
  EXPECT_EQ(graph.num_edges(), 0);
}

TEST(ClusterGraph, SingleMatchingPair) {
  ClusterGraph graph(3);
  EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kApplied);
  EXPECT_EQ(graph.Deduce(0, 1), Deduction::kMatching);
  EXPECT_EQ(graph.Deduce(0, 2), Deduction::kUndeduced);
  EXPECT_EQ(graph.num_clusters(), 2);
  EXPECT_EQ(graph.num_merges(), 1);
}

TEST(ClusterGraph, SingleNonMatchingPair) {
  ClusterGraph graph(3);
  EXPECT_EQ(graph.Add(0, 1, kN), AddOutcome::kApplied);
  EXPECT_EQ(graph.Deduce(0, 1), Deduction::kNonMatching);
  EXPECT_EQ(graph.Deduce(1, 2), Deduction::kUndeduced);
  EXPECT_EQ(graph.num_edges(), 1);
}

TEST(ClusterGraph, RedundantLabelsAreReported) {
  ClusterGraph graph(4);
  EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kApplied);
  EXPECT_EQ(graph.Add(1, 2, kM), AddOutcome::kApplied);
  EXPECT_EQ(graph.Add(0, 2, kM), AddOutcome::kRedundant);
  EXPECT_EQ(graph.Add(0, 3, kN), AddOutcome::kApplied);
  EXPECT_EQ(graph.Add(2, 3, kN), AddOutcome::kRedundant);
  EXPECT_EQ(graph.num_edges(), 1);
  EXPECT_EQ(graph.num_conflicts(), 0);
}

TEST(ClusterGraph, ParallelEdgesCollapseOnMerge) {
  // x is non-matching with both a and b; merging a,b must collapse the two
  // cluster edges into one.
  ClusterGraph graph(3);
  EXPECT_EQ(graph.Add(0, 2, kN), AddOutcome::kApplied);
  EXPECT_EQ(graph.Add(1, 2, kN), AddOutcome::kApplied);
  EXPECT_EQ(graph.num_edges(), 2);
  EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kApplied);
  EXPECT_EQ(graph.num_edges(), 1);
  EXPECT_EQ(graph.Deduce(1, 2), Deduction::kNonMatching);
}

TEST(ClusterGraph, ConflictMatchingOverEdgeKeepFirst) {
  ClusterGraph graph(2, ConflictPolicy::kKeepFirst);
  EXPECT_EQ(graph.Add(0, 1, kN), AddOutcome::kApplied);
  EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kConflict);
  // The first (non-matching) label wins.
  EXPECT_EQ(graph.Deduce(0, 1), Deduction::kNonMatching);
  EXPECT_EQ(graph.conflicts_matching(), 1);
  EXPECT_EQ(graph.conflicts_non_matching(), 0);
}

TEST(ClusterGraph, ConflictMatchingOverEdgeTrustNew) {
  ClusterGraph graph(2, ConflictPolicy::kTrustNew);
  EXPECT_EQ(graph.Add(0, 1, kN), AddOutcome::kApplied);
  EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kConflict);
  // The new (matching) label wins: the edge is dropped and clusters merge.
  EXPECT_EQ(graph.Deduce(0, 1), Deduction::kMatching);
  EXPECT_EQ(graph.num_edges(), 0);
  EXPECT_EQ(graph.num_conflicts(), 1);
}

TEST(ClusterGraph, ConflictNonMatchingInsideClusterAlwaysRejected) {
  for (ConflictPolicy policy :
       {ConflictPolicy::kKeepFirst, ConflictPolicy::kTrustNew}) {
    ClusterGraph graph(3, policy);
    EXPECT_EQ(graph.Add(0, 1, kM), AddOutcome::kApplied);
    EXPECT_EQ(graph.Add(1, 2, kM), AddOutcome::kApplied);
    EXPECT_EQ(graph.Add(0, 2, kN), AddOutcome::kConflict);
    EXPECT_EQ(graph.Deduce(0, 2), Deduction::kMatching);
    EXPECT_EQ(graph.conflicts_non_matching(), 1);
  }
}

TEST(ClusterGraph, ResetClearsEverything) {
  ClusterGraph graph(3);
  graph.Add(0, 1, kM);
  graph.Add(1, 2, kN);
  graph.Reset(5);
  EXPECT_EQ(graph.num_objects(), 5);
  EXPECT_EQ(graph.num_clusters(), 5);
  EXPECT_EQ(graph.num_edges(), 0);
  EXPECT_EQ(graph.num_merges(), 0);
  EXPECT_EQ(graph.Deduce(0, 1), Deduction::kUndeduced);
}

// Induced on o7, o5, o3, o2 (local ids 0..3): o5 and o3 start merged, and
// only the two edges among the three clusters come along — o6 and its two
// edges stay behind.
TEST_F(Example1Graph, InducedOnKeepsClustersAndEdgesAmongTheObjects) {
  ClusterGraph induced = graph_.InducedOn({6, 4, 2, 1});
  EXPECT_EQ(induced.num_objects(), 4);
  EXPECT_EQ(induced.num_clusters(), 3);
  EXPECT_EQ(induced.num_edges(), 2);
  EXPECT_EQ(induced.num_merges(), 0);
  EXPECT_EQ(induced.num_conflicts(), 0);
  EXPECT_TRUE(induced.edge_log().empty());
  EXPECT_EQ(induced.Deduce(1, 2), Deduction::kMatching);     // (o5,o3)
  EXPECT_EQ(induced.Deduce(0, 1), Deduction::kNonMatching);  // (o7,o5)
  EXPECT_EQ(induced.Deduce(2, 3), Deduction::kNonMatching);  // (o3,o2)
  EXPECT_EQ(induced.Deduce(0, 3), Deduction::kUndeduced);    // (o7,o2)
  EXPECT_EQ(induced.CanonicalClusterId(2), 1);
  // Further labels count from zero: (o7,o3) matching contradicts an edge.
  EXPECT_EQ(induced.Add(0, 2, kM), AddOutcome::kConflict);
  EXPECT_EQ(induced.num_conflicts(), 1);
  EXPECT_EQ(graph_.num_conflicts(), 0);
}

TEST(ClusterGraph, ClusterSizeTracksMerges) {
  ClusterGraph graph(5);
  graph.Add(0, 1, kM);
  graph.Add(1, 2, kM);
  EXPECT_EQ(graph.ClusterSize(0), 3);
  EXPECT_EQ(graph.ClusterSize(2), 3);
  EXPECT_EQ(graph.ClusterSize(3), 1);
  EXPECT_EQ(graph.ClusterOf(0), graph.ClusterOf(2));
  EXPECT_NE(graph.ClusterOf(0), graph.ClusterOf(4));
}

TEST(ClusterGraph, LongMatchingChainDeducesEndpoints) {
  constexpr int32_t kChain = 500;
  ClusterGraph graph(kChain);
  for (int32_t i = 0; i + 1 < kChain; ++i) {
    ASSERT_EQ(graph.Add(i, i + 1, kM), AddOutcome::kApplied);
  }
  EXPECT_EQ(graph.Deduce(0, kChain - 1), Deduction::kMatching);
  EXPECT_EQ(graph.num_clusters(), 1);
}

TEST(ClusterGraph, NegativeChainDoesNotPropagate) {
  // Lemma 1: two non-matching pairs in a row deduce nothing.
  ClusterGraph graph(3);
  graph.Add(0, 1, kN);
  graph.Add(1, 2, kN);
  EXPECT_EQ(graph.Deduce(0, 2), Deduction::kUndeduced);
}

TEST(ClusterGraph, EdgesSurviveMergesOnBothSides) {
  // Clusters {0,1} and {2,3} with an edge; merge 4 into each side and the
  // edge must keep connecting the grown clusters.
  ClusterGraph graph(6);
  graph.Add(0, 1, kM);
  graph.Add(2, 3, kM);
  graph.Add(1, 2, kN);
  graph.Add(0, 4, kM);
  graph.Add(3, 5, kM);
  EXPECT_EQ(graph.Deduce(4, 5), Deduction::kNonMatching);
  EXPECT_EQ(graph.num_edges(), 1);
}

// Regression for the "raw roots treated as stable" bug: `ClusterOf` may
// answer a different id for an untouched query after an unrelated-looking
// merge, while `CanonicalClusterId` never does.
TEST(ClusterGraphClusterIds, RawRootsGoStaleAcrossMerges) {
  ClusterGraph graph(5);
  graph.Add(0, 1, kM);                       // {0,1}
  const ObjectId stale_root = graph.ClusterOf(0);
  ASSERT_EQ(graph.CanonicalClusterId(0), 0);

  graph.Add(2, 3, kM);
  graph.Add(3, 4, kM);                       // {2,3,4}
  graph.Add(0, 2, kM);                       // {0,1} absorbed by the larger set
  // The raw root a caller might have persisted no longer identifies the
  // cluster: comparing it with a fresh root answers "different cluster"
  // for 0 itself.
  EXPECT_NE(graph.ClusterOf(0), stale_root);
  // The canonical id is still 0, for every member.
  for (ObjectId x = 0; x < 5; ++x) {
    EXPECT_EQ(graph.CanonicalClusterId(x), 0) << "x=" << x;
  }
}

TEST(ClusterGraphClusterIds, CanonicalIdEqualIffSameCluster) {
  ClusterGraph graph(6);
  graph.Add(4, 5, kM);
  graph.Add(1, 3, kM);
  for (ObjectId a = 0; a < 6; ++a) {
    for (ObjectId b = 0; b < 6; ++b) {
      const bool same_cluster = graph.Deduce(a, b) == Deduction::kMatching ||
                                a == b;
      EXPECT_EQ(graph.CanonicalClusterId(a) == graph.CanonicalClusterId(b),
                same_cluster)
          << "(" << a << "," << b << ")";
    }
  }
}

// Builds a mixed graph: chains of merges plus non-matching edges.
ClusterGraph MakeGraph(int32_t num_objects, uint64_t seed) {
  ClusterGraph graph(num_objects);
  Rng rng(seed);
  for (int i = 0; i < num_objects * 3; ++i) {
    const auto a =
        static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    const auto b =
        static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    if (a == b) continue;
    // Group by id range so matches and edges both occur.
    const bool same_group = a / 8 == b / 8;
    graph.Add(a, b, same_group ? kM : kN);
  }
  return graph;
}

// Const Deduce/ClusterOf/ClusterSize/CanonicalClusterId on a graph nobody
// mutates must be safe from any number of threads: the path-compressing
// reads they replaced were a data race, which TSan catches here.
TEST(SnapshotConcurrency, ConstReadsOnFrozenGraphAreParallelSafe) {
  const int32_t n = 64;
  const ClusterGraph graph = MakeGraph(n, /*seed=*/7);

  // Single-threaded reference answers, via the same const path.
  std::vector<Deduction> expected;
  for (ObjectId a = 0; a < n; ++a) {
    for (ObjectId b = a + 1; b < n; ++b) {
      expected.push_back(graph.Deduce(a, b));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      size_t i = 0;
      for (ObjectId a = 0; a < n; ++a) {
        for (ObjectId b = a + 1; b < n; ++b, ++i) {
          if (graph.Deduce(a, b) != expected[i]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          // Exercise every const read surface.
          if (graph.ClusterOf(a) == graph.ClusterOf(b) &&
              graph.CanonicalClusterId(a) != graph.CanonicalClusterId(b)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          if (graph.ClusterSize(a) < 1) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace crowdjoin
