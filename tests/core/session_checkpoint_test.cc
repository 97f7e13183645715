// Wire-format and file round-trip tests for the session checkpoint
// (core/session_checkpoint.h). Every corruption mode must surface as a
// typed error — a torn, truncated, or foreign file must never decode into
// a plausible-but-wrong frontier — and whatever does decode must resume
// without aborting.

#include "core/session_checkpoint.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <utility>

#include "common/rng.h"
#include "common/serialize.h"
#include "core/labeling_session.h"
#include "tests/core/test_fixtures.h"

namespace crowdjoin {
namespace {

SessionCheckpointState MakeState() {
  SessionCheckpointState state;
  state.fingerprint = 0xFEEDFACECAFEBEEFull;
  state.completed_rounds = 3;
  state.candidates_consumed = 60;
  state.num_objects = 25;
  state.remaining_budget = 17;
  state.num_candidates = 60;
  state.num_crowdsourced = 21;
  state.num_deduced = 39;
  state.num_unlabeled = 0;
  state.num_stream_rounds = 3;
  state.crowdsourced_per_iteration = {9, 7, 5};
  state.outcomes = {
      PairOutcome{Label::kMatching, LabelSource::kCrowdsourced},
      std::nullopt,
      PairOutcome{Label::kNonMatching, LabelSource::kDeduced},
      PairOutcome{Label::kNonMatching, LabelSource::kCrowdsourced},
  };
  state.edge_log = {{0, 1, Label::kMatching}, {1, 2, Label::kNonMatching}};
  state.has_order_rng = true;
  Rng rng(11);
  (void)rng.Normal(0.0, 1.0);  // populate the spare-normal slot
  state.order_rng = rng.SaveState();
  return state;
}

void ExpectStatesEqual(const SessionCheckpointState& actual,
                       const SessionCheckpointState& expected) {
  EXPECT_EQ(actual.fingerprint, expected.fingerprint);
  EXPECT_EQ(actual.completed_rounds, expected.completed_rounds);
  EXPECT_EQ(actual.candidates_consumed, expected.candidates_consumed);
  EXPECT_EQ(actual.num_objects, expected.num_objects);
  EXPECT_EQ(actual.remaining_budget, expected.remaining_budget);
  EXPECT_EQ(actual.num_candidates, expected.num_candidates);
  EXPECT_EQ(actual.num_crowdsourced, expected.num_crowdsourced);
  EXPECT_EQ(actual.num_deduced, expected.num_deduced);
  EXPECT_EQ(actual.num_unlabeled, expected.num_unlabeled);
  EXPECT_EQ(actual.num_stream_rounds, expected.num_stream_rounds);
  EXPECT_EQ(actual.crowdsourced_per_iteration,
            expected.crowdsourced_per_iteration);
  EXPECT_EQ(actual.outcomes, expected.outcomes);
  ASSERT_EQ(actual.edge_log.size(), expected.edge_log.size());
  for (size_t i = 0; i < actual.edge_log.size(); ++i) {
    EXPECT_EQ(actual.edge_log[i].a, expected.edge_log[i].a);
    EXPECT_EQ(actual.edge_log[i].b, expected.edge_log[i].b);
    EXPECT_EQ(actual.edge_log[i].label, expected.edge_log[i].label);
  }
  ASSERT_EQ(actual.has_order_rng, expected.has_order_rng);
  if (expected.has_order_rng) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(actual.order_rng.s[i], expected.order_rng.s[i]);
    }
    EXPECT_EQ(actual.order_rng.spare_normal, expected.order_rng.spare_normal);
    EXPECT_EQ(actual.order_rng.has_spare_normal,
              expected.order_rng.has_spare_normal);
  }
}

// Replaces the trailing checksum with one matching the (possibly mutated)
// payload, so a test can hit the decoder's field checks rather than the
// checksum gate.
std::string Rechecksum(std::string encoded) {
  encoded.resize(encoded.size() - 8);
  const uint64_t checksum = Fingerprint64(encoded);
  for (int i = 0; i < 8; ++i) {
    encoded.push_back(static_cast<char>((checksum >> (8 * i)) & 0xFF));
  }
  return encoded;
}

TEST(SessionCheckpoint, EncodeDecodeRoundTrip) {
  const SessionCheckpointState state = MakeState();
  const std::string encoded = EncodeSessionCheckpoint(state);
  const SessionCheckpointState decoded =
      DecodeSessionCheckpoint(encoded).value();
  ExpectStatesEqual(decoded, state);
}

TEST(SessionCheckpoint, RoundTripWithoutOrderRng) {
  SessionCheckpointState state = MakeState();
  state.has_order_rng = false;
  const SessionCheckpointState decoded =
      DecodeSessionCheckpoint(EncodeSessionCheckpoint(state)).value();
  ExpectStatesEqual(decoded, state);
}

TEST(SessionCheckpoint, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "cjckpt_roundtrip.bin";
  std::remove(path.c_str());
  const SessionCheckpointState state = MakeState();
  ASSERT_TRUE(SaveSessionCheckpoint(path, state).ok());
  const SessionCheckpointState loaded = LoadSessionCheckpoint(path).value();
  ExpectStatesEqual(loaded, state);
  std::remove(path.c_str());
}

TEST(SessionCheckpoint, MissingFileIsNotFound) {
  EXPECT_EQ(LoadSessionCheckpoint(::testing::TempDir() +
                                  "cjckpt_does_not_exist.bin")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(SessionCheckpoint, FlippedByteFailsTheChecksum) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  encoded[encoded.size() / 2] ^= 0x40;
  EXPECT_EQ(DecodeSessionCheckpoint(encoded).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SessionCheckpoint, BadMagicIsRejected) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  encoded[0] ^= 0xFF;
  // With a recomputed checksum the decoder reaches the magic check itself.
  EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionCheckpoint, TrailingBytesAreRejected) {
  std::string encoded = EncodeSessionCheckpoint(MakeState());
  encoded.insert(encoded.size() - 8, 1, '\0');
  EXPECT_EQ(DecodeSessionCheckpoint(Rechecksum(encoded)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SessionCheckpoint, TooSmallBufferIsRejected) {
  EXPECT_EQ(DecodeSessionCheckpoint("short").status().code(),
            StatusCode::kInvalidArgument);
}

// Decodes `data` and returns its status; a throw fails the test and reads
// as an error, so the mutation loops below keep going.
Status DecodeStatus(const std::string& data) {
  try {
    return DecodeSessionCheckpoint(data).status();
  } catch (const std::exception& e) {
    ADD_FAILURE() << "decoder threw: " << e.what();
    return Status::Internal(e.what());
  }
}

// Overwrites `width` little-endian bytes at `at` with `value`.
std::string WithFieldAt(std::string encoded, size_t at, size_t width,
                        uint64_t value) {
  for (size_t i = 0; i < width; ++i) {
    encoded[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return encoded;
}

uint64_t ReadU64At(const std::string& encoded, size_t at) {
  BinaryReader r(std::string_view(encoded).substr(at, 8));
  return r.ReadU64().value();
}

// Deterministic mutation sweep over a small encoded state, each mutant
// re-checksummed so it reaches the field decoder: the decoder returns a
// Status for every one and never throws.
TEST(SessionCheckpointMutation, EveryFlippedByteDecodesWithoutThrowing) {
  const std::string encoded = EncodeSessionCheckpoint(MakeState());
  for (size_t i = 0; i + 8 < encoded.size(); ++i) {
    std::string mutant = encoded;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xFF);
    const Status status = DecodeStatus(Rechecksum(mutant));
    if (i < 8) {
      EXPECT_FALSE(status.ok()) << "magic byte " << i;
    }
  }
}

// Truncates the payload at every length, keeping the checksum valid for
// what is left: past the 16-byte minimum, a bounds-checked field read runs
// out of buffer.
TEST(SessionCheckpoint, TruncatedPayloadIsOutOfRange) {
  const std::string encoded = EncodeSessionCheckpoint(MakeState());
  for (size_t len = 0; len + 8 < encoded.size(); ++len) {
    const std::string mutant =
        Rechecksum(encoded.substr(0, len) + std::string(8, '\0'));
    EXPECT_EQ(DecodeStatus(mutant).code(), len < 8
                                               ? StatusCode::kInvalidArgument
                                               : StatusCode::kOutOfRange)
        << "payload length " << len;
  }
}

TEST(SessionCheckpointMutation, InflatedCountsAreErrors) {
  const SessionCheckpointState state = MakeState();
  const std::string encoded = EncodeSessionCheckpoint(state);
  // Wire offsets of the u64 element counts: magic, fingerprint, two i64s,
  // the u32 object count and six i64s precede the batch count.
  constexpr size_t kBatchesAt = 8 + 8 + 2 * 8 + 4 + 6 * 8;
  const size_t outcomes_at =
      kBatchesAt + 8 + 8 * state.crowdsourced_per_iteration.size();
  const size_t edges_at = outcomes_at + 8 + state.outcomes.size();
  ASSERT_EQ(ReadU64At(encoded, kBatchesAt),
            state.crowdsourced_per_iteration.size());
  ASSERT_EQ(ReadU64At(encoded, outcomes_at), state.outcomes.size());
  ASSERT_EQ(ReadU64At(encoded, edges_at), state.edge_log.size());
  for (const size_t at : {kBatchesAt, outcomes_at, edges_at}) {
    const uint64_t remaining = encoded.size() - 8 - (at + 8);
    for (const uint64_t count : {UINT64_MAX, remaining + 1}) {
      const Status status =
          DecodeStatus(Rechecksum(WithFieldAt(encoded, at, 8, count)));
      EXPECT_EQ(status.code(), StatusCode::kOutOfRange)
          << "offset " << at << " count " << count << ": " << status;
    }
  }
}

TEST(SessionCheckpointMutation, ObjectCountAboveInt32IsAnError) {
  const std::string encoded = EncodeSessionCheckpoint(MakeState());
  constexpr size_t kObjectsAt = 8 + 8 + 2 * 8;
  for (const uint64_t count : {uint64_t{0x80000000u}, uint64_t{UINT32_MAX}}) {
    const Status status =
        DecodeStatus(Rechecksum(WithFieldAt(encoded, kObjectsAt, 4, count)));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "count " << count << ": " << status;
  }
}

constexpr uint64_t kCampaignFingerprint = 0xC4EC4EC4EC4EC4E5ull;

// A small round-parallel campaign under a random order, so its frontier
// carries every field: batches, outcomes, an edge log and the order RNG.
Result<LabelingReport> RunSmallCampaign(
    const testing_fixtures::RandomInstance& instance,
    const SessionCheckpointOptions& checkpoint) {
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  LabelingSession session(options);
  MaterializedCandidateStream stream(&instance.pairs, /*round_size=*/20);
  GroundTruthOracle oracle(instance.entity_of);
  Rng order_rng(5);
  return session.RunStream(stream, OrderKind::kRandom, oracle,
                           /*truth=*/nullptr, &order_rng, &checkpoint);
}

// Deterministic mutation sweep over a real campaign's round-3 frontier:
// seeded bit flips, every truncation, and inflated count fields, each
// re-checksummed so it reaches the field decoder. Decoding returns a
// Status and reserves no more elements than the buffer can hold; a mutant
// that decodes resumes its campaign to some Status without aborting.
TEST(SessionCheckpointMutation, RealFrontierMutantsFailOrResumeCleanly) {
  const auto instance = testing_fixtures::MakeRandomInstance(71, 40, 8, 160);
  SessionCheckpointOptions checkpoint;
  checkpoint.path = ::testing::TempDir() + "cjckpt_mutants.ckpt";
  checkpoint.fingerprint = kCampaignFingerprint;
  std::remove(checkpoint.path.c_str());
  std::string frontier;
  checkpoint.after_write = [&](int64_t completed_rounds) {
    if (completed_rounds == 3) {
      frontier = ReadFileToString(checkpoint.path).value();
    }
  };
  ASSERT_TRUE(RunSmallCampaign(instance, checkpoint).ok());
  checkpoint.after_write = nullptr;
  const SessionCheckpointState genuine =
      DecodeSessionCheckpoint(frontier).value();
  ASSERT_TRUE(genuine.has_order_rng);
  ASSERT_FALSE(genuine.edge_log.empty());

  int64_t num_resumed = 0;
  const auto try_mutant = [&](const std::string& mutant) -> Status {
    const Status status = DecodeStatus(mutant);
    if (!status.ok()) return status;
    const SessionCheckpointState state =
        DecodeSessionCheckpoint(mutant).value();
    EXPECT_LE(state.crowdsourced_per_iteration.capacity() * 8,
              mutant.size());
    EXPECT_LE(state.outcomes.capacity(), mutant.size());
    EXPECT_LE(state.edge_log.capacity() * 9, mutant.size());
    EXPECT_TRUE(AtomicWriteFile(checkpoint.path, mutant).ok());
    ++num_resumed;
    return RunSmallCampaign(instance, checkpoint).status();
  };

  // The unmutated frontier resumes to completion.
  ASSERT_TRUE(try_mutant(frontier).ok());

  const std::string payload = frontier.substr(0, frontier.size() - 8);
  Rng rng(2024);
  for (int i = 0; i < 400; ++i) {
    std::string mutant = payload;
    for (int64_t flips = rng.UniformInt(1, 3); flips > 0; --flips) {
      const uint64_t bit = rng.UniformUint64(payload.size() * 8);
      mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    }
    SCOPED_TRACE(testing::Message() << "bit-flip mutant " << i);
    (void)try_mutant(Rechecksum(mutant + std::string(8, '\0')));
  }

  for (size_t len = 0; len < payload.size(); ++len) {
    SCOPED_TRACE(testing::Message() << "payload truncated to " << len);
    EXPECT_FALSE(try_mutant(Rechecksum(payload.substr(0, len) +
                                       std::string(8, '\0')))
                     .ok());
  }

  // Wire offsets as in InflatedCountsAreErrors, for this frontier's sizes.
  constexpr size_t kBatchesAt = 8 + 8 + 2 * 8 + 4 + 6 * 8;
  const size_t outcomes_at =
      kBatchesAt + 8 + 8 * genuine.crowdsourced_per_iteration.size();
  const size_t edges_at = outcomes_at + 8 + genuine.outcomes.size();
  ASSERT_EQ(ReadU64At(frontier, edges_at), genuine.edge_log.size());
  for (const auto& [at, width] :
       {std::pair<size_t, uint64_t>{kBatchesAt, 8},
        std::pair<size_t, uint64_t>{outcomes_at, 1},
        std::pair<size_t, uint64_t>{edges_at, 9}}) {
    const uint64_t remaining = payload.size() - (at + 8);
    for (const uint64_t count : {remaining / width + 1, remaining + 1,
                                 uint64_t{UINT32_MAX}, uint64_t{1} << 62,
                                 uint64_t{UINT64_MAX}}) {
      SCOPED_TRACE(testing::Message() << "offset " << at << " count " << count);
      EXPECT_EQ(try_mutant(Rechecksum(WithFieldAt(frontier, at, 8, count)))
                    .code(),
                StatusCode::kOutOfRange);
    }
  }

  // An inflated object count keeps every edge in range, so it decodes; the
  // resume must refuse it before sizing the graph by it.
  constexpr size_t kObjectsAt = 8 + 8 + 2 * 8;
  const auto num_objects = static_cast<uint64_t>(genuine.num_objects);
  for (const uint64_t count : {uint64_t{INT32_MAX}, num_objects + 1}) {
    SCOPED_TRACE(testing::Message() << "object count " << count);
    EXPECT_EQ(
        try_mutant(Rechecksum(WithFieldAt(frontier, kObjectsAt, 4, count)))
            .code(),
        StatusCode::kFailedPrecondition);
  }
  EXPECT_GT(num_resumed, 100);
  std::remove(checkpoint.path.c_str());
}

TEST(SessionCheckpoint, EncodingIsDeterministic) {
  const SessionCheckpointState state = MakeState();
  EXPECT_EQ(EncodeSessionCheckpoint(state), EncodeSessionCheckpoint(state));
}

}  // namespace
}  // namespace crowdjoin
