#ifndef CROWDJOIN_CORE_SESSION_CHECKPOINT_H_
#define CROWDJOIN_CORE_SESSION_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/labeling_result.h"
#include "graph/cluster_graph.h"

namespace crowdjoin {

/// \brief Durable-campaign knobs for `LabelingSession::RunStream`.
///
/// With a non-empty `path` the session writes its round frontier to `path`
/// after every `every_rounds` completed stream rounds — atomically, via
/// write-to-temp + rename, so a kill at any instant leaves either the old
/// checkpoint or the new one, never a torn file. On the next run with
/// `resume` set, the session loads the checkpoint, fast-forwards the
/// candidate stream past the completed rounds (streams are deterministic,
/// so skipping re-consumes the same candidates without labeling them), and
/// continues — producing a final report byte-identical to an uninterrupted
/// run.
///
/// Checkpointing rejects `LabelingSessionOptions::one_to_one`: the cluster
/// graph is persisted as its `Add` log (see `LoggedEdge`), and replay of
/// that log is what reconstructs the deduction state.
struct SessionCheckpointOptions {
  /// Checkpoint file. Empty disables checkpointing entirely.
  std::string path;

  /// Write after every this-many completed rounds (>= 1).
  int64_t every_rounds = 1;

  /// Campaign-configuration fingerprint (hash whatever identifies the
  /// workload: scale, threshold, seed, order, schedule). A checkpoint
  /// written under a different fingerprint is rejected at resume —
  /// resuming someone else's frontier would silently corrupt the run.
  uint64_t fingerprint = 0;

  /// Attempt to resume from an existing file at `path`. A missing file is
  /// a fresh start, not an error.
  bool resume = true;

  /// Test/harness hook invoked after each successful write with the number
  /// of completed rounds the file now covers (the kill-and-resume harness
  /// SIGKILLs the process from here).
  std::function<void(int64_t completed_rounds)> after_write;
};

/// \brief Everything `RunStream` needs to continue a campaign from the end
/// of round `completed_rounds`: the report so far, the budget left, the
/// cluster graph as its Add log, the stream cursor (as a candidate count,
/// for verification while fast-forwarding), and the order-RNG state.
struct SessionCheckpointState {
  uint64_t fingerprint = 0;
  int64_t completed_rounds = 0;
  /// Candidates consumed from the stream so far; re-counted during the
  /// fast-forward and verified, catching a changed stream early.
  int64_t candidates_consumed = 0;
  int32_t num_objects = 0;
  int64_t remaining_budget = -1;

  // LabelingReport fields accumulated so far.
  int64_t num_candidates = 0;
  int64_t num_crowdsourced = 0;
  int64_t num_deduced = 0;
  int64_t num_unlabeled = 0;
  int64_t num_stream_rounds = 0;
  std::vector<int64_t> crowdsourced_per_iteration;
  std::vector<std::optional<PairOutcome>> outcomes;

  /// The session's cluster graph, as the full `Add` log.
  std::vector<LoggedEdge> edge_log;

  /// Order-RNG state (random labeling orders), absent when no RNG drives
  /// the order.
  bool has_order_rng = false;
  Rng::State order_rng = {};
};

/// Serializes `state` to the versioned checkpoint wire format (magic +
/// fields + FNV-1a checksum; see common/serialize.h).
std::string EncodeSessionCheckpoint(const SessionCheckpointState& state);

/// Parses a checkpoint file's bytes. Fails with `InvalidArgument` on a
/// bad magic/version, an object count above int32, or a logged edge that
/// is a self-loop or names an object outside `[0, num_objects)`;
/// `OutOfRange` on
/// truncation or an element count the buffer cannot hold, and
/// `FailedPrecondition` on checksum mismatch. Arbitrary bytes yield a
/// `Status`, never a throw.
Result<SessionCheckpointState> DecodeSessionCheckpoint(std::string_view data);

/// Loads and decodes the checkpoint at `path`. `NotFound` when absent.
Result<SessionCheckpointState> LoadSessionCheckpoint(const std::string& path);

/// Encodes `state` and writes it to `path` atomically.
Status SaveSessionCheckpoint(const std::string& path,
                             const SessionCheckpointState& state);

}  // namespace crowdjoin

#endif  // CROWDJOIN_CORE_SESSION_CHECKPOINT_H_
