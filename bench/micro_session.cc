// Microbenchmark: LabelingSession dispatch overhead versus the direct
// (pre-session) engine loops.
//
// The session replaces five hand-specialized engines with one composable
// one; the price is policy dispatch and a report struct. This
// bench pins that price: `Session*` variants must stay within ~2% of the
// matching `Direct*` loop (the perf CI job flags >15% regressions, and the
// recorded baselines in BASELINES.md track the fine-grained ratio).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/labeling_session.h"
#include "core/oracle.h"
#include "graph/cluster_graph.h"

namespace {

using namespace crowdjoin;  // NOLINT(build/namespaces)

struct Instance {
  CandidateSet pairs;
  std::vector<int32_t> entity_of;
  std::vector<int32_t> order;
};

// Clustered candidate set with likelihoods correlated to the truth — the
// same shape the labeling layer sees from the machine step.
Instance MakeInstance(int64_t num_pairs) {
  const auto num_objects = static_cast<int32_t>(num_pairs / 4 + 8);
  const int32_t num_entities = num_objects / 5 + 2;
  Rng rng(42);
  Instance instance;
  instance.entity_of.resize(static_cast<size_t>(num_objects));
  for (auto& e : instance.entity_of) {
    e = static_cast<int32_t>(rng.Index(static_cast<size_t>(num_entities)));
  }
  while (static_cast<int64_t>(instance.pairs.size()) < num_pairs) {
    const auto a =
        static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    const auto b =
        static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    if (a == b) continue;
    const bool matching = instance.entity_of[static_cast<size_t>(a)] ==
                          instance.entity_of[static_cast<size_t>(b)];
    const double base = matching ? 0.75 : 0.3;
    const double likelihood =
        std::min(0.99, std::max(0.01, base + rng.Normal(0.0, 0.2)));
    instance.pairs.push_back({std::min(a, b), std::max(a, b), likelihood});
  }
  instance.order.resize(instance.pairs.size());
  std::iota(instance.order.begin(), instance.order.end(), 0);
  return instance;
}

// The result struct the pre-session engines filled: one outcome per
// candidate position, every pair labeled.
struct DirectResult {
  std::vector<PairOutcome> outcomes;
  int64_t num_crowdsourced = 0;
  int64_t num_deduced = 0;
  int64_t num_conflicts = 0;
  std::vector<int64_t> crowdsourced_per_iteration;
};

// The pre-session sequential engine body, verbatim (including the result
// bookkeeping it always paid for): the baseline the session's sequential
// schedule is measured against.
DirectResult DirectSequential(const Instance& instance, LabelOracle& oracle) {
  DirectResult result;
  result.outcomes.resize(instance.pairs.size());
  ClusterGraph graph(NumObjectsSpanned(instance.pairs));
  for (int32_t pos : instance.order) {
    const CandidatePair& pair = instance.pairs[static_cast<size_t>(pos)];
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    PairOutcome& outcome = result.outcomes[static_cast<size_t>(pos)];
    if (deduction == Deduction::kUndeduced) {
      outcome.label = oracle.GetLabel(pair.a, pair.b);
      outcome.source = LabelSource::kCrowdsourced;
      ++result.num_crowdsourced;
      result.crowdsourced_per_iteration.push_back(1);
      graph.Add(pair.a, pair.b, outcome.label);
    } else {
      outcome.label = DeductionToLabel(deduction);
      outcome.source = LabelSource::kDeduced;
      ++result.num_deduced;
    }
  }
  result.num_conflicts = graph.num_conflicts();
  return result;
}

// The pre-session round-parallel engine, verbatim (inline oracle
// resolution, single-threaded — the dispatch comparison must not be
// drowned in pool traffic).
DirectResult DirectRoundParallel(const Instance& instance,
                                 LabelOracle& oracle) {
  const CandidateSet& pairs = instance.pairs;
  DirectResult result;
  result.outcomes.resize(pairs.size());
  std::vector<std::optional<Label>> labels(pairs.size());
  size_t num_labeled = 0;
  while (num_labeled < pairs.size()) {
    const std::vector<int32_t> batch = ParallelCrowdsourcedPairs(
        pairs, instance.order, labels, nullptr, ConflictPolicy::kKeepFirst);
    for (int32_t pos : batch) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      const Label label = oracle.GetLabel(pair.a, pair.b);
      labels[static_cast<size_t>(pos)] = label;
      result.outcomes[static_cast<size_t>(pos)] = {
          label, LabelSource::kCrowdsourced};
      ++result.num_crowdsourced;
      ++num_labeled;
    }
    result.crowdsourced_per_iteration.push_back(
        static_cast<int64_t>(batch.size()));
    ClusterGraph graph(NumObjectsSpanned(pairs));
    for (int32_t pos : instance.order) {
      const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
      auto& label = labels[static_cast<size_t>(pos)];
      if (label.has_value()) {
        graph.Add(pair.a, pair.b, *label);
        continue;
      }
      const Deduction deduction = graph.Deduce(pair.a, pair.b);
      if (deduction != Deduction::kUndeduced) {
        label = DeductionToLabel(deduction);
        result.outcomes[static_cast<size_t>(pos)] = {*label,
                                                     LabelSource::kDeduced};
        ++result.num_deduced;
        ++num_labeled;
      }
    }
    result.num_conflicts = graph.num_conflicts();
  }
  return result;
}

void BM_DirectSequential(benchmark::State& state) {
  const Instance instance = MakeInstance(state.range(0));
  GroundTruthOracle oracle(instance.entity_of);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DirectSequential(instance, oracle));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_DirectSequential)->Arg(256)->Arg(2048)->Arg(8192);

void BM_SessionSequential(benchmark::State& state) {
  const Instance instance = MakeInstance(state.range(0));
  GroundTruthOracle oracle(instance.entity_of);
  LabelingSession session;  // sequential schedule, transitivity only
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Run(instance.pairs, instance.order, oracle).value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_SessionSequential)->Arg(256)->Arg(2048)->Arg(8192);

void BM_DirectRoundParallel(benchmark::State& state) {
  const Instance instance = MakeInstance(state.range(0));
  GroundTruthOracle oracle(instance.entity_of);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DirectRoundParallel(instance, oracle));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_DirectRoundParallel)->Arg(256)->Arg(2048)->Arg(8192);

void BM_SessionRoundParallel(benchmark::State& state) {
  const Instance instance = MakeInstance(state.range(0));
  GroundTruthOracle oracle(instance.entity_of);
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  LabelingSession session(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        session.Run(instance.pairs, instance.order, oracle).value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_SessionRoundParallel)->Arg(256)->Arg(2048)->Arg(8192);

// The same instances streamed in eight chunked rounds: every round's
// scans start from what earlier rounds established (the streamed scan
// path, ordered per round by expected likelihood).
void BM_SessionStreamRoundParallel(benchmark::State& state) {
  const Instance instance = MakeInstance(state.range(0));
  GroundTruthOracle oracle(instance.entity_of);
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  LabelingSession session(options);
  const size_t round_size = instance.pairs.size() / 8;
  for (auto _ : state) {
    MaterializedCandidateStream stream(&instance.pairs, round_size);
    benchmark::DoNotOptimize(
        session.RunStream(stream, OrderKind::kExpected, oracle).value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_SessionStreamRoundParallel)->Arg(256)->Arg(2048)->Arg(8192);

// The sequential schedule with one-to-one deduction on: the cost of the
// matched-object check and bookkeeping on top of transitivity. (The name
// predates `LabelingSessionOptions::one_to_one`; it is kept so recorded
// baselines still line up.)
void BM_SessionOneToOneChain(benchmark::State& state) {
  const Instance instance = MakeInstance(state.range(0));
  GroundTruthOracle oracle(instance.entity_of);
  LabelingSessionOptions options;
  options.one_to_one = true;
  for (auto _ : state) {
    LabelingSession session(options);
    benchmark::DoNotOptimize(
        session.Run(instance.pairs, instance.order, oracle).value());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(instance.pairs.size()));
}
BENCHMARK(BM_SessionOneToOneChain)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
