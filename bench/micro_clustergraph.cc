// Microbenchmark + ablation: ClusterGraph deduction vs the naive BFS path
// search it replaces (Section 3.2 argues path enumeration is infeasible;
// even the polynomial BFS reference is orders of magnitude slower), and the
// effect of small-to-large edge-set merging under a labeling workload.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "graph/cluster_graph.h"
#include "graph/reference_deducer.h"

namespace crowdjoin {
namespace {

struct Workload {
  int32_t num_objects;
  std::vector<std::tuple<ObjectId, ObjectId, Label>> labeled;
  std::vector<std::pair<ObjectId, ObjectId>> queries;
};

// A labeling-shaped workload: clusters of matching pairs plus random
// non-matching edges between clusters, then mixed deduction queries.
Workload MakeWorkload(int32_t num_objects, int32_t cluster_size,
                      int32_t num_edges, int32_t num_queries) {
  Workload w;
  w.num_objects = num_objects;
  Rng rng(1234);
  for (int32_t o = 0; o + 1 < num_objects; ++o) {
    if ((o + 1) % cluster_size != 0) {
      w.labeled.emplace_back(o, o + 1, Label::kMatching);
    }
  }
  for (int32_t e = 0; e < num_edges; ++e) {
    const auto a = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    const auto b = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    if (a / cluster_size == b / cluster_size) continue;  // same cluster
    w.labeled.emplace_back(a, b, Label::kNonMatching);
  }
  for (int32_t q = 0; q < num_queries; ++q) {
    w.queries.emplace_back(
        static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects))),
        static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects))));
  }
  return w;
}

void BM_ClusterGraphDeduce(benchmark::State& state) {
  const auto num_objects = static_cast<int32_t>(state.range(0));
  Workload w = MakeWorkload(num_objects, /*cluster_size=*/8,
                            /*num_edges=*/num_objects, /*num_queries=*/1024);
  ClusterGraph graph(w.num_objects);
  for (const auto& [a, b, label] : w.labeled) graph.Add(a, b, label);
  for (auto _ : state) {
    for (const auto& [a, b] : w.queries) {
      if (a == b) continue;
      benchmark::DoNotOptimize(graph.Deduce(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.queries.size()));
}
BENCHMARK(BM_ClusterGraphDeduce)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_ReferencePathSearchDeduce(benchmark::State& state) {
  const auto num_objects = static_cast<int32_t>(state.range(0));
  Workload w = MakeWorkload(num_objects, /*cluster_size=*/8,
                            /*num_edges=*/num_objects, /*num_queries=*/16);
  ReferenceDeducer deducer(w.num_objects);
  for (const auto& [a, b, label] : w.labeled) deducer.Add(a, b, label);
  for (auto _ : state) {
    for (const auto& [a, b] : w.queries) {
      if (a == b) continue;
      benchmark::DoNotOptimize(deducer.Deduce(a, b));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(w.queries.size()));
}
BENCHMARK(BM_ReferencePathSearchDeduce)->Arg(1024)->Arg(8192);

void BM_ClusterGraphInsertChain(benchmark::State& state) {
  // Worst-ish case for edge merging: one growing chain of matching pairs
  // while every object also carries non-matching edges to a hub set.
  const auto num_objects = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    ClusterGraph graph(num_objects);
    const int32_t hub = num_objects - 1;
    for (int32_t o = 0; o + 2 < num_objects; o += 2) {
      graph.Add(o, hub, Label::kNonMatching);
      graph.Add(o, o + 1, Label::kMatching);
    }
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * num_objects);
}
BENCHMARK(BM_ClusterGraphInsertChain)->Arg(1024)->Arg(16384);

void BM_ClusterGraphCopy(benchmark::State& state) {
  // Copying a labeled graph: what every Algorithm-2 scan does to its base
  // before it labels ahead of the crowd.
  const auto num_objects = static_cast<int32_t>(state.range(0));
  Workload w = MakeWorkload(num_objects, /*cluster_size=*/8,
                            /*num_edges=*/num_objects, /*num_queries=*/0);
  ClusterGraph graph(w.num_objects);
  for (const auto& [a, b, label] : w.labeled) graph.Add(a, b, label);
  for (auto _ : state) {
    ClusterGraph copy = graph;
    benchmark::DoNotOptimize(copy.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * num_objects);
}
BENCHMARK(BM_ClusterGraphCopy)->Arg(1024)->Arg(65536);

}  // namespace
}  // namespace crowdjoin

BENCHMARK_MAIN();
