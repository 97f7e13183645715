#ifndef CROWDJOIN_TESTS_CORE_TEST_FIXTURES_H_
#define CROWDJOIN_TESTS_CORE_TEST_FIXTURES_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/candidate.h"
#include "core/labeling_session.h"
#include "core/oracle.h"

namespace crowdjoin::testing_fixtures {

/// The identity labeling order <0, 1, ..., n-1>.
inline std::vector<int32_t> IdentityOrder(size_t n) {
  std::vector<int32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

/// Session options for `schedule`; every other knob keeps its default.
inline LabelingSessionOptions ScheduleOptions(
    SchedulePolicy schedule, int num_threads = 1,
    ConflictPolicy policy = ConflictPolicy::kKeepFirst) {
  LabelingSessionOptions options;
  options.schedule = schedule;
  options.num_threads = num_threads;
  options.conflict_policy = policy;
  return options;
}

/// Labels `pairs` in `order` with a fresh session configured by `options`.
inline Result<LabelingReport> RunSession(const LabelingSessionOptions& options,
                                         const CandidateSet& pairs,
                                         const std::vector<int32_t>& order,
                                         LabelOracle& oracle) {
  LabelingSession session(options);
  return session.Run(pairs, order, oracle);
}

/// The paper's running example (Figure 3): eight candidate pairs over six
/// objects (o1..o6 mapped to ids 0..5), in decreasing likelihood order.
/// Ground truth: {o1,o2,o3} match, {o4,o5} match, {o6} is a singleton.
inline CandidateSet Figure3Pairs() {
  return {
      {0, 1, 0.95},  // p1  (matching)
      {1, 2, 0.90},  // p2  (matching)
      {0, 5, 0.85},  // p3  (non-matching)
      {0, 2, 0.80},  // p4  (matching)
      {3, 4, 0.75},  // p5  (matching)
      {3, 5, 0.70},  // p6  (non-matching)
      {1, 3, 0.65},  // p7  (non-matching)
      {4, 5, 0.60},  // p8  (non-matching)
  };
}

/// Ground truth for Figure3Pairs().
inline GroundTruthOracle Figure3Truth() {
  return GroundTruthOracle({0, 0, 0, 1, 1, 2});
}

/// A random consistent instance: objects assigned to entities, candidate
/// pairs sampled with likelihoods correlated to (but noisy around) the
/// truth, mimicking a machine likelihood channel.
struct RandomInstance {
  CandidateSet pairs;
  std::vector<int32_t> entity_of;
};

inline RandomInstance MakeRandomInstance(uint64_t seed, int32_t num_objects,
                                         int32_t num_entities,
                                         int32_t num_pairs) {
  Rng rng(seed);
  RandomInstance instance;
  instance.entity_of.resize(static_cast<size_t>(num_objects));
  for (auto& e : instance.entity_of) {
    e = static_cast<int32_t>(rng.Index(static_cast<size_t>(num_entities)));
  }
  while (static_cast<int32_t>(instance.pairs.size()) < num_pairs) {
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
    instance.pairs.push_back(
        {std::min(a, b), std::max(a, b), likelihood});
  }
  return instance;
}

/// \brief Truth-backed oracle with mutex-guarded per-pair call counting.
///
/// The parallel labeler may call `GetLabel` from several pool workers at
/// once, so all bookkeeping here is guarded — concurrent tests can assert
/// *exact* oracle-call counts (total and per pair) without racing, and a
/// TSan run of the suite stays clean.
class ThreadSafeCountingOracle : public LabelOracle {
 public:
  explicit ThreadSafeCountingOracle(std::vector<int32_t> entity_of)
      : truth_(std::move(entity_of)) {}

  Label GetLabel(ObjectId a, ObjectId b) override {
    ++num_queries_;  // atomic in the base class
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_[Key(a, b)];
    }
    return truth_.Truth(a, b);
  }

  /// Number of GetLabel calls observed.
  int64_t total_calls() const { return num_queries(); }

  /// Number of GetLabel calls for the (unordered) pair (a, b).
  int64_t calls(ObjectId a, ObjectId b) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = calls_.find(Key(a, b));
    return it == calls_.end() ? 0 : it->second;
  }

  /// The largest per-pair call count — 1 means no pair was asked twice.
  int64_t max_calls_per_pair() const {
    std::lock_guard<std::mutex> lock(mu_);
    int64_t max_calls = 0;
    for (const auto& [key, count] : calls_) {
      if (count > max_calls) max_calls = count;
    }
    return max_calls;
  }

  const GroundTruthOracle& truth() const { return truth_; }

 private:
  static std::pair<ObjectId, ObjectId> Key(ObjectId a, ObjectId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  GroundTruthOracle truth_;
  mutable std::mutex mu_;
  std::map<std::pair<ObjectId, ObjectId>, int64_t> calls_;
};

/// \brief Scripted oracle: answers from a fixed (unordered) pair -> label
/// map, `fallback` for everything unscripted.
///
/// Call counting is mutex-guarded so the mock can be shared across the
/// parallel labeler's worker threads. Because every answer is a pure
/// function of the pair, the mock is batch-safe; scripting *inconsistent*
/// answers (violating transitivity) is the supported way to exercise
/// conflict handling deterministically.
class MockOracle : public LabelOracle {
 public:
  explicit MockOracle(
      std::map<std::pair<ObjectId, ObjectId>, Label> answers = {},
      Label fallback = Label::kNonMatching)
      : answers_(std::move(answers)), fallback_(fallback) {}

  // Copyable despite the mutex member, so tests can run many labeling
  // passes from one scripted prototype.
  MockOracle(const MockOracle& other)
      : LabelOracle(other),
        answers_(other.answers_),
        fallback_(other.fallback_) {
    std::lock_guard<std::mutex> lock(other.mu_);
    calls_ = other.calls_;
  }

  void SetAnswer(ObjectId a, ObjectId b, Label label) {
    answers_[Key(a, b)] = label;  // script setup, before any GetLabel runs
  }

  Label GetLabel(ObjectId a, ObjectId b) override {
    ++num_queries_;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++calls_[Key(a, b)];
    }
    const auto it = answers_.find(Key(a, b));
    return it == answers_.end() ? fallback_ : it->second;
  }

  /// Number of GetLabel calls for the (unordered) pair (a, b).
  int64_t calls(ObjectId a, ObjectId b) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = calls_.find(Key(a, b));
    return it == calls_.end() ? 0 : it->second;
  }

 private:
  static std::pair<ObjectId, ObjectId> Key(ObjectId a, ObjectId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  std::map<std::pair<ObjectId, ObjectId>, Label> answers_;
  Label fallback_;
  mutable std::mutex mu_;
  std::map<std::pair<ObjectId, ObjectId>, int64_t> calls_;
};

}  // namespace crowdjoin::testing_fixtures

#endif  // CROWDJOIN_TESTS_CORE_TEST_FIXTURES_H_
