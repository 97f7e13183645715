// Kill-and-resume behavior of LabelingSession::RunStream: a campaign
// restored from its checkpoint file must finish with a report identical to
// an uninterrupted run's, and a checkpoint written by a different campaign
// (or replayed against a different stream) must be refused, not resumed.

#include <gtest/gtest.h>

#include <climits>
#include <cstdio>
#include <functional>
#include <optional>
#include <string>

#include "common/serialize.h"
#include "core/labeling_session.h"
#include "core/session_checkpoint.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

using testing_fixtures::MakeRandomInstance;
using testing_fixtures::RandomInstance;
using testing_fixtures::ThreadSafeCountingOracle;

constexpr size_t kRoundSize = 25;
constexpr uint64_t kFingerprint = 0x5EED5EED5EED5EEDull;

LabelingSessionOptions Options(SchedulePolicy schedule,
                               StopPolicy stop = StopPolicy::Unbounded()) {
  LabelingSessionOptions options;
  options.schedule = schedule;
  options.stop = stop;
  return options;
}

Result<LabelingReport> RunCampaign(
    const CandidateSet& pairs, const LabelingSessionOptions& options,
    LabelOracle& oracle, const SessionCheckpointOptions* checkpoint,
    OrderKind order = OrderKind::kExpected, Rng* order_rng = nullptr,
    size_t round_size = kRoundSize) {
  LabelingSession session(options);
  MaterializedCandidateStream stream(&pairs, round_size);
  return session.RunStream(stream, order, oracle, /*truth=*/nullptr,
                           order_rng, checkpoint);
}

// Runs the campaign with checkpointing, capturing the checkpoint file as it
// stood after `kill_after_rounds` rounds, then writes that stale frontier
// back — the state a SIGKILL at that instant would have left on disk.
void RunAndRewindTo(const CandidateSet& pairs,
                    const LabelingSessionOptions& options, LabelOracle& oracle,
                    SessionCheckpointOptions checkpoint,
                    int64_t kill_after_rounds,
                    const LabelingReport& expected_full,
                    OrderKind order = OrderKind::kExpected,
                    Rng* order_rng = nullptr) {
  std::string frozen;
  checkpoint.after_write = [&](int64_t completed_rounds) {
    if (completed_rounds == kill_after_rounds) {
      frozen = ReadFileToString(checkpoint.path).value();
    }
  };
  const LabelingReport full =
      RunCampaign(pairs, options, oracle, &checkpoint, order, order_rng)
          .value();
  EXPECT_TRUE(full == expected_full);
  ASSERT_FALSE(frozen.empty());
  ASSERT_TRUE(AtomicWriteFile(checkpoint.path, frozen).ok());
}

TEST(CheckpointResume, ResumeMatchesUninterruptedRun) {
  const auto instance = MakeRandomInstance(31, 40, 8, 160);
  for (SchedulePolicy schedule :
       {SchedulePolicy::kSequential, SchedulePolicy::kRoundParallel}) {
    const std::string path =
        ::testing::TempDir() + "cj_resume_" +
        std::string(SchedulePolicyToString(schedule)) + ".ckpt";
    std::remove(path.c_str());

    ThreadSafeCountingOracle baseline_oracle(instance.entity_of);
    const LabelingReport baseline =
        RunCampaign(instance.pairs, Options(schedule), baseline_oracle,
                    /*checkpoint=*/nullptr)
            .value();

    SessionCheckpointOptions checkpoint;
    checkpoint.path = path;
    checkpoint.fingerprint = kFingerprint;
    ThreadSafeCountingOracle full_oracle(instance.entity_of);
    RunAndRewindTo(instance.pairs, Options(schedule), full_oracle, checkpoint,
                   /*kill_after_rounds=*/3, baseline);

    // Resume from the round-3 frontier: the report must equal the
    // uninterrupted run's, and only the remaining rounds' pairs may reach
    // the oracle.
    ThreadSafeCountingOracle resumed_oracle(instance.entity_of);
    const LabelingReport resumed =
        RunCampaign(instance.pairs, Options(schedule), resumed_oracle,
                    &checkpoint)
            .value();
    EXPECT_TRUE(resumed == baseline) << SchedulePolicyToString(schedule);
    EXPECT_GT(resumed_oracle.total_calls(), 0);
    EXPECT_LT(resumed_oracle.total_calls(), baseline_oracle.total_calls());
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, ResumeAfterTheFinalRoundReplaysNothing) {
  const auto instance = MakeRandomInstance(32, 30, 6, 100);
  const std::string path = ::testing::TempDir() + "cj_resume_final.ckpt";
  std::remove(path.c_str());

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  ThreadSafeCountingOracle full_oracle(instance.entity_of);
  const LabelingReport full =
      RunCampaign(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                  full_oracle, &checkpoint)
          .value();

  // The file now covers every round; a rerun restores and crowdsources
  // nothing new.
  ThreadSafeCountingOracle resumed_oracle(instance.entity_of);
  const LabelingReport resumed =
      RunCampaign(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                  resumed_oracle, &checkpoint)
          .value();
  EXPECT_TRUE(resumed == full);
  EXPECT_EQ(resumed_oracle.total_calls(), 0);
  std::remove(path.c_str());
}

TEST(CheckpointResume, RandomOrderRngStateIsRestored) {
  // The kRandom order draws from the order RNG each round, so a resumed
  // run only matches if the checkpoint restored the generator mid-stream.
  const auto instance = MakeRandomInstance(33, 36, 7, 140);
  const std::string path = ::testing::TempDir() + "cj_resume_rng.ckpt";
  std::remove(path.c_str());

  Rng baseline_rng(5);
  ThreadSafeCountingOracle baseline_oracle(instance.entity_of);
  const LabelingReport baseline =
      RunCampaign(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                  baseline_oracle, /*checkpoint=*/nullptr, OrderKind::kRandom,
                  &baseline_rng)
          .value();

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  Rng full_rng(5);
  ThreadSafeCountingOracle full_oracle(instance.entity_of);
  RunAndRewindTo(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                 full_oracle, checkpoint, /*kill_after_rounds=*/2, baseline,
                 OrderKind::kRandom, &full_rng);

  Rng resumed_rng(5);  // fresh seed; RestoreState must fast-forward it
  ThreadSafeCountingOracle resumed_oracle(instance.entity_of);
  const LabelingReport resumed =
      RunCampaign(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                  resumed_oracle, &checkpoint, OrderKind::kRandom,
                  &resumed_rng)
          .value();
  EXPECT_TRUE(resumed == baseline);
  std::remove(path.c_str());
}

TEST(CheckpointResume, BudgetIsCarriedAcrossTheResume) {
  const auto instance = MakeRandomInstance(34, 30, 6, 120);
  const std::string path = ::testing::TempDir() + "cj_resume_budget.ckpt";
  std::remove(path.c_str());
  const LabelingSessionOptions options =
      Options(SchedulePolicy::kSequential, StopPolicy::Budget(25));

  ThreadSafeCountingOracle baseline_oracle(instance.entity_of);
  const LabelingReport baseline =
      RunCampaign(instance.pairs, options, baseline_oracle,
                  /*checkpoint=*/nullptr)
          .value();
  EXPECT_GT(baseline.num_unlabeled, 0);  // the cap must actually bind

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  ThreadSafeCountingOracle full_oracle(instance.entity_of);
  RunAndRewindTo(instance.pairs, options, full_oracle, checkpoint,
                 /*kill_after_rounds=*/2, baseline);

  ThreadSafeCountingOracle resumed_oracle(instance.entity_of);
  const LabelingReport resumed =
      RunCampaign(instance.pairs, options, resumed_oracle, &checkpoint)
          .value();
  EXPECT_TRUE(resumed == baseline);
  // Resumed crowdsourcing + checkpointed crowdsourcing = exactly the budget
  // the baseline spent, never more.
  EXPECT_LE(resumed_oracle.total_calls(), baseline.num_crowdsourced);
  std::remove(path.c_str());
}

TEST(CheckpointResume, ForeignFingerprintIsRefused) {
  const auto instance = MakeRandomInstance(35, 24, 5, 80);
  const std::string path = ::testing::TempDir() + "cj_resume_foreign.ckpt";
  std::remove(path.c_str());

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = 1;
  ThreadSafeCountingOracle oracle(instance.entity_of);
  ASSERT_TRUE(RunCampaign(instance.pairs,
                          Options(SchedulePolicy::kRoundParallel), oracle,
                          &checkpoint)
                  .ok());

  checkpoint.fingerprint = 2;  // same file, different campaign identity
  ThreadSafeCountingOracle other(instance.entity_of);
  EXPECT_EQ(RunCampaign(instance.pairs,
                        Options(SchedulePolicy::kRoundParallel), other,
                        &checkpoint)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointResume, MismatchedStreamIsRefused) {
  // A checkpoint records how many candidates its rounds consumed; resuming
  // against a stream with a different round shape must fail fast instead
  // of silently relabeling or skipping pairs.
  const auto instance = MakeRandomInstance(36, 30, 6, 120);
  const std::string path = ::testing::TempDir() + "cj_resume_stream.ckpt";
  std::remove(path.c_str());

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  ThreadSafeCountingOracle oracle(instance.entity_of);
  const LabelingReport baseline =
      RunCampaign(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                  oracle, /*checkpoint=*/nullptr)
          .value();
  ThreadSafeCountingOracle full_oracle(instance.entity_of);
  RunAndRewindTo(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                 full_oracle, checkpoint, /*kill_after_rounds=*/2, baseline);

  ThreadSafeCountingOracle resumed_oracle(instance.entity_of);
  EXPECT_EQ(RunCampaign(instance.pairs,
                        Options(SchedulePolicy::kRoundParallel),
                        resumed_oracle, &checkpoint, OrderKind::kExpected,
                        /*order_rng=*/nullptr, /*round_size=*/10)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(CheckpointResume, CorruptCheckpointSurfacesInsteadOfRestarting) {
  const auto instance = MakeRandomInstance(37, 20, 4, 60);
  const std::string path = ::testing::TempDir() + "cj_resume_corrupt.ckpt";
  ASSERT_TRUE(AtomicWriteFile(path, "garbage").ok());

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  ThreadSafeCountingOracle oracle(instance.entity_of);
  const auto result = RunCampaign(
      instance.pairs, Options(SchedulePolicy::kRoundParallel), oracle,
      &checkpoint);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// Resumes a round-parallel campaign from its genuine round-2 frontier
// after `edit` rewrote it. The edited state is re-saved, so its checksum
// is valid: the file a buggy or hostile writer leaves, not a torn one.
Status ResumeFromEditedFrontier(
    const RandomInstance& instance, const std::string& path,
    const std::function<void(SessionCheckpointState&)>& edit) {
  std::remove(path.c_str());
  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  std::optional<SessionCheckpointState> frontier;
  checkpoint.after_write = [&](int64_t completed_rounds) {
    if (completed_rounds == 2) frontier = LoadSessionCheckpoint(path).value();
  };
  ThreadSafeCountingOracle full_oracle(instance.entity_of);
  EXPECT_TRUE(RunCampaign(instance.pairs,
                          Options(SchedulePolicy::kRoundParallel),
                          full_oracle, &checkpoint)
                  .ok());
  EXPECT_TRUE(frontier.has_value());
  if (!frontier.has_value()) return Status::Internal("no round-2 frontier");
  edit(*frontier);
  EXPECT_TRUE(SaveSessionCheckpoint(path, *frontier).ok());

  checkpoint.after_write = nullptr;
  ThreadSafeCountingOracle resumed_oracle(instance.entity_of);
  const Status status =
      RunCampaign(instance.pairs, Options(SchedulePolicy::kRoundParallel),
                  resumed_oracle, &checkpoint)
          .status();
  std::remove(path.c_str());
  return status;
}

TEST(CheckpointResume, SelfLoopEdgeIsAnError) {
  const auto instance = MakeRandomInstance(39, 30, 6, 120);
  const Status status = ResumeFromEditedFrontier(
      instance, ::testing::TempDir() + "cj_resume_self_loop.ckpt",
      [](SessionCheckpointState& state) {
        ASSERT_FALSE(state.edge_log.empty());
        state.edge_log.front().b = state.edge_log.front().a;
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(CheckpointResume, EdgeOutsideTheObjectCountIsAnError) {
  const auto instance = MakeRandomInstance(40, 30, 6, 120);
  const Status status = ResumeFromEditedFrontier(
      instance, ::testing::TempDir() + "cj_resume_edge_range.ckpt",
      [](SessionCheckpointState& state) {
        ASSERT_FALSE(state.edge_log.empty());
        state.edge_log.back().b = state.num_objects;
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(CheckpointResume, InflatedObjectCountIsRefusedBeforeSizingTheGraph) {
  // Resuming used to grow the graph to the file's object count before the
  // stream could vouch for it: INT32_MAX objects is several GiB.
  const auto instance = MakeRandomInstance(41, 30, 6, 120);
  const Status status = ResumeFromEditedFrontier(
      instance, ::testing::TempDir() + "cj_resume_objects.ckpt",
      [](SessionCheckpointState& state) { state.num_objects = INT32_MAX; });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
}

TEST(CheckpointResume, FrontierMissingAnOutcomeIsAnError) {
  // Restored, it would land every later outcome one position off.
  const auto instance = MakeRandomInstance(42, 30, 6, 120);
  const Status status = ResumeFromEditedFrontier(
      instance, ::testing::TempDir() + "cj_resume_outcomes.ckpt",
      [](SessionCheckpointState& state) {
        ASSERT_FALSE(state.outcomes.empty());
        state.outcomes.pop_back();
      });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

TEST(CheckpointResume, BudgetOnAnUnboundedRunIsAnError) {
  // Restored, it would silently stop the run's crowdsourcing.
  const auto instance = MakeRandomInstance(43, 30, 6, 120);
  const Status status = ResumeFromEditedFrontier(
      instance, ::testing::TempDir() + "cj_resume_budget_edit.ckpt",
      [](SessionCheckpointState& state) { state.remaining_budget = 0; });
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
}

// The frontier persists the cluster graph alone, so a checkpointed stream
// rejects one-to-one deduction.
TEST(CheckpointResume, CheckpointRequiresTransitiveOnlyChain) {
  const auto instance = MakeRandomInstance(38, 20, 4, 60);
  const std::string path = ::testing::TempDir() + "cj_resume_chain.ckpt";
  std::remove(path.c_str());

  SessionCheckpointOptions checkpoint;
  checkpoint.path = path;
  checkpoint.fingerprint = kFingerprint;
  LabelingSessionOptions options = Options(SchedulePolicy::kSequential);
  options.one_to_one = true;
  LabelingSession session(options);
  MaterializedCandidateStream stream(&instance.pairs, kRoundSize);
  ThreadSafeCountingOracle oracle(instance.entity_of);
  EXPECT_EQ(session
                .RunStream(stream, OrderKind::kExpected, oracle,
                           /*truth=*/nullptr, /*order_rng=*/nullptr,
                           &checkpoint)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace crowdjoin
