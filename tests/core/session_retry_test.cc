// The session-level retry loop and the batch-safety guard: transiently
// faulted attempts consume backoff but never an oracle call, the ask after
// max_attempts escalates (so campaigns terminate and transient faults are
// fully masked), and a sequential-stream oracle on a multi-threaded
// schedule is refused instead of silently raced.

#include <gtest/gtest.h>

#include <cmath>

#include "core/labeling_session.h"
#include "obs/metrics.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::Figure3Pairs;
using testing_fixtures::Figure3Truth;
using testing_fixtures::IdentityOrder;
using testing_fixtures::MakeRandomInstance;
using testing_fixtures::ThreadSafeCountingOracle;

int64_t GlobalCounterValue(std::string_view name) {
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::CounterSample* sample = snapshot.FindCounter(name);
  return sample == nullptr ? 0 : sample->value;
}

TEST(SessionRetry, BatchSafetyDefaults) {
  GroundTruthOracle truth = Figure3Truth();
  EXPECT_TRUE(truth.IsBatchSafe());
  HashNoisyOracle hashed(&truth, 0.1, 0.1, /*seed=*/3);
  EXPECT_TRUE(hashed.IsBatchSafe());
  NoisyOracle sequential(&truth, 0.1, 0.1, Rng(3));
  EXPECT_FALSE(sequential.IsBatchSafe());
}

TEST(SessionRetry, MultiThreadedScheduleRefusesSequentialStreamOracle) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  NoisyOracle noisy(&truth, 0.0, 0.0, Rng(3));

  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  options.num_threads = 4;
  LabelingSession threaded(options);
  EXPECT_EQ(threaded.Run(pairs, IdentityOrder(pairs.size()), noisy)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The same oracle is fine single-threaded (batch order == call order)...
  options.num_threads = 1;
  LabelingSession single(options);
  EXPECT_TRUE(single.Run(pairs, IdentityOrder(pairs.size()), noisy).ok());

  // ...and a batch-safe oracle is fine at any thread count.
  options.num_threads = 4;
  LabelingSession safe(options);
  EXPECT_TRUE(safe.Run(pairs, IdentityOrder(pairs.size()), truth).ok());
}

TEST(SessionRetry, StreamingScheduleAlsoGuardsBatchSafety) {
  const CandidateSet pairs = Figure3Pairs();
  GroundTruthOracle truth = Figure3Truth();
  NoisyOracle noisy(&truth, 0.0, 0.0, Rng(3));
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  options.num_threads = 2;
  LabelingSession session(options);
  MaterializedCandidateStream stream(&pairs);
  EXPECT_EQ(session.RunStream(stream, OrderKind::kExpected, noisy)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionRetry, TransientFaultsAreMaskedAndNeverReachTheOracle) {
  const auto instance = MakeRandomInstance(41, 30, 6, 110);

  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  ThreadSafeCountingOracle baseline_oracle(instance.entity_of);
  const LabelingReport baseline =
      LabelingSession(options)
          .Run(instance.pairs, IdentityOrder(instance.pairs.size()),
               baseline_oracle)
          .value();

  // Every pair faults on its first two attempts, then succeeds.
  options.attempt_fault = [](ObjectId, ObjectId, int attempt) {
    return attempt <= 2;
  };
  options.retry.max_attempts = 4;
  options.retry.seed = 9;
  const int64_t retried_before =
      GlobalCounterValue("crowd.hits_retried_total");
  ThreadSafeCountingOracle faulted_oracle(instance.entity_of);
  const LabelingReport faulted =
      LabelingSession(options)
          .Run(instance.pairs, IdentityOrder(instance.pairs.size()),
               faulted_oracle)
          .value();

  // Identical labels, identical oracle traffic: faulted attempts cost
  // backoff, not questions.
  EXPECT_TRUE(faulted == baseline);
  EXPECT_EQ(faulted_oracle.total_calls(), baseline_oracle.total_calls());
  EXPECT_EQ(faulted_oracle.max_calls_per_pair(), 1);
  EXPECT_EQ(GlobalCounterValue("crowd.hits_retried_total") - retried_before,
            faulted.num_crowdsourced);
}

TEST(SessionRetry, EscalationAfterMaxAttemptsTerminatesTheCampaign) {
  // A fault model that never relents: every allowed attempt fails, so each
  // crowdsourced pair rides the escalation path — and still labels
  // correctly, because escalation cannot fault.
  const auto instance = MakeRandomInstance(42, 24, 5, 80);
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  ThreadSafeCountingOracle baseline_oracle(instance.entity_of);
  const LabelingReport baseline =
      LabelingSession(options)
          .Run(instance.pairs, IdentityOrder(instance.pairs.size()),
               baseline_oracle)
          .value();

  options.attempt_fault = [](ObjectId, ObjectId, int) { return true; };
  options.retry.max_attempts = 3;
  ThreadSafeCountingOracle faulted_oracle(instance.entity_of);
  const LabelingReport faulted =
      LabelingSession(options)
          .Run(instance.pairs, IdentityOrder(instance.pairs.size()),
               faulted_oracle)
          .value();
  EXPECT_TRUE(faulted == baseline);
  EXPECT_EQ(faulted_oracle.total_calls(), baseline_oracle.total_calls());
}

TEST(SessionRetry, ReportIsThreadCountInvariantUnderFaults) {
  // The headline determinism claim at the session layer: the fault coins
  // are pure hashes, so the retried report matches at every thread count.
  const auto instance = MakeRandomInstance(43, 30, 6, 120);
  GroundTruthOracle truth(instance.entity_of);
  const auto order = IdentityOrder(instance.pairs.size());

  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  options.retry.max_attempts = 4;
  options.retry.seed = 77;
  options.attempt_fault = [](ObjectId a, ObjectId b, int attempt) {
    // An arbitrary deterministic pair/attempt pattern.
    return ((static_cast<uint64_t>(a) * 31 + static_cast<uint64_t>(b) * 7 +
             static_cast<uint64_t>(attempt)) %
            3) == 0;
  };
  options.num_threads = 1;
  HashNoisyOracle oracle(&truth, 0.15, 0.15, /*seed=*/5);
  const LabelingReport baseline =
      LabelingSession(options).Run(instance.pairs, order, oracle).value();
  for (int threads : {2, 4, 8}) {
    options.num_threads = threads;
    HashNoisyOracle threaded_oracle(&truth, 0.15, 0.15, /*seed=*/5);
    const LabelingReport threaded =
        LabelingSession(options)
            .Run(instance.pairs, order, threaded_oracle)
            .value();
    EXPECT_TRUE(threaded == baseline) << "num_threads=" << threads;
  }
}

TEST(SessionRetry, BackoffScheduleIsDeterministicWithJitterBounds) {
  RetryPolicy retry;
  retry.base_backoff_us = 1000;
  retry.backoff_multiplier = 2.0;
  retry.jitter_fraction = 0.25;
  retry.seed = 123;
  EXPECT_EQ(retry.BackoffUs(1, 42), 0);  // the initial ask waits nothing
  for (int attempt = 2; attempt <= 5; ++attempt) {
    const int64_t backoff = retry.BackoffUs(attempt, 42);
    EXPECT_EQ(backoff, retry.BackoffUs(attempt, 42));  // pure function
    const double nominal =
        1000.0 * std::pow(2.0, static_cast<double>(attempt - 2));
    EXPECT_GE(static_cast<double>(backoff), 0.75 * nominal - 1.0);
    EXPECT_LE(static_cast<double>(backoff), 1.25 * nominal + 1.0);
  }
  // Different keys and seeds jitter differently (with overwhelming odds).
  EXPECT_NE(retry.BackoffUs(4, 42), retry.BackoffUs(4, 43));
}

}  // namespace
}  // namespace crowdjoin
