// Threaded pins for the graph's concurrency contract, written to fail
// under ThreadSanitizer (the CI tsan job runs this suite) if a "read"
// ever becomes a write again:
//  * const Deduce/ClusterOf/ClusterSize/CanonicalClusterId on a frozen
//    graph must be safe from any number of threads — the old
//    path-compressing reads were a latent data race;
//  * snapshot readers must be able to run against epochs the single
//    writer keeps advancing (the serve layer's reader/writer protocol).

#include <gtest/gtest.h>

#include <atomic>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/cluster_graph.h"

namespace crowdjoin {
namespace {

constexpr Label kM = Label::kMatching;
constexpr Label kN = Label::kNonMatching;

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

TEST(SnapshotConcurrency, ReadersOnPublishedSnapshotsWhileWriterAdvances) {
  const int32_t n = 96;
  ClusterGraph graph(8);

  // The serve-layer protocol in miniature: the writer publishes each new
  // epoch into a shared slot; readers copy the slot and read through it.
  std::shared_mutex slot_mu;
  ClusterGraphSnapshot slot = graph.Snapshot();
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        ClusterGraphSnapshot snapshot;
        {
          std::shared_lock<std::shared_mutex> lock(slot_mu);
          snapshot = slot;
        }
        const int32_t objects = snapshot.num_objects();
        if (objects < 2) continue;
        const auto a =
            static_cast<ObjectId>(rng.Index(static_cast<size_t>(objects)));
        const auto b =
            static_cast<ObjectId>(rng.Index(static_cast<size_t>(objects)));
        if (a == b) continue;
        // Within one snapshot, Deduce and the cluster ids must cohere.
        const Deduction deduction = snapshot.Deduce(a, b);
        const bool same_canonical =
            snapshot.CanonicalClusterId(a) == snapshot.CanonicalClusterId(b);
        if ((deduction == Deduction::kMatching) != same_canonical) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // A canonical id is the smallest member of its own cluster.
        const ObjectId canonical = snapshot.CanonicalClusterId(a);
        if (canonical > a ||
            snapshot.CanonicalClusterId(canonical) != canonical) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writer: grow and label, publishing after every mutation.
  Rng rng(42);
  for (int32_t objects = 8; objects <= n; objects += 8) {
    graph.EnsureObjects(objects);
    for (int i = 0; i < 64; ++i) {
      const auto a =
          static_cast<ObjectId>(rng.Index(static_cast<size_t>(objects)));
      const auto b =
          static_cast<ObjectId>(rng.Index(static_cast<size_t>(objects)));
      if (a == b) continue;
      graph.Add(a, b, a / 6 == b / 6 ? kM : kN);
      const ClusterGraphSnapshot fresh = graph.Snapshot();
      std::unique_lock<std::shared_mutex> lock(slot_mu);
      slot = fresh;
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace crowdjoin
