#ifndef CROWDJOIN_CORE_LABELING_SESSION_H_
#define CROWDJOIN_CORE_LABELING_SESSION_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core/candidate.h"
#include "core/labeling_order.h"
#include "core/labeling_result.h"
#include "core/oracle.h"
#include "core/retry_policy.h"
#include "core/session_checkpoint.h"
#include "graph/cluster_graph.h"

namespace crowdjoin {

// ---------------------------------------------------------------------------
// Candidate input
// ---------------------------------------------------------------------------

/// \brief Pull-based source of candidate pairs, delivered round by round.
///
/// The labeling session consumes one round at a time and never needs the
/// full candidate set in memory: each round is labeled (with deduction
/// state carried across rounds) and then dropped, so the peak candidate
/// buffer is bounded by the largest round. Implementations: the
/// `MaterializedCandidateStream` adapter below, and the simjoin module's
/// `StreamingCandidateFeed`, which drains the sharded join's probe tasks
/// incrementally.
class CandidateStream {
 public:
  virtual ~CandidateStream() = default;

  /// Returns the next round of candidates; an empty set means the stream
  /// is exhausted. Pair object ids are global (stable across rounds).
  virtual Result<CandidateSet> NextRound() = 0;
};

/// \brief Adapter presenting an in-memory `CandidateSet` as a stream:
/// one round of everything (`round_size == 0`, the legacy materialized
/// shape) or fixed-size chunks in candidate order.
class MaterializedCandidateStream : public CandidateStream {
 public:
  /// `pairs` must outlive the stream.
  explicit MaterializedCandidateStream(const CandidateSet* pairs,
                                       size_t round_size = 0)
      : pairs_(pairs), round_size_(round_size) {}

  Result<CandidateSet> NextRound() override;

 private:
  const CandidateSet* pairs_;
  size_t round_size_;
  size_t cursor_ = 0;
};

// ---------------------------------------------------------------------------
// Schedule / stop policies
// ---------------------------------------------------------------------------

/// \brief How crowdsourced pairs are published and resolved.
enum class SchedulePolicy : uint8_t {
  /// One pair at a time, in labeling order (Section 3.2). The only
  /// schedule that supports one-to-one deduction.
  kSequential = 0,
  /// Round-based batches (Algorithm 2): publish every must-crowdsource
  /// pair of a round at once, resolve them (fanned over `num_threads`
  /// pool workers, or an external batch source), deduce, repeat.
  kRoundParallel = 1,
  /// Re-plan after every single completed pair (Section 5.2), keeping the
  /// platform saturated; driven through Start()/OnPairLabeled()/Finish().
  kInstantDecision = 2,
};

/// Stable display name ("sequential", "round-parallel", "instant").
std::string_view SchedulePolicyToString(SchedulePolicy policy);

/// \brief When to stop paying for crowd answers.
///
/// Unbounded runs label everything; a budget caps the number of
/// crowdsourced pairs (the Whang et al. [27] setting) — deduction keeps
/// firing after exhaustion and unreachable pairs stay unlabeled.
struct StopPolicy {
  /// Maximum crowdsourced pairs; negative means unbounded. Construct
  /// through the factories: only `Unbounded()` produces a negative value.
  int64_t budget = -1;

  static StopPolicy Unbounded() { return {}; }
  /// A cap of `budget` crowdsourced pairs. Negative requests clamp to 0
  /// (no crowdsourcing at all) — asking for a bounded run must never
  /// silently produce an unbounded one.
  static StopPolicy Budget(int64_t budget) {
    return {budget < 0 ? 0 : budget};
  }
  bool bounded() const { return budget >= 0; }
};

/// Configuration of a `LabelingSession`.
struct LabelingSessionOptions {
  SchedulePolicy schedule = SchedulePolicy::kSequential;
  StopPolicy stop;
  /// Conflict handling of the session's cluster graph.
  ConflictPolicy conflict_policy = ConflictPolicy::kKeepFirst;
  /// One-to-one exclusivity (Section 8 future work): when every entity has
  /// at most one record per collection, a crowd-confirmed match (a, b)
  /// makes every other pair touching a or b non-matching. Transitivity is
  /// asked first; a one-to-one deduction is added to the cluster graph so
  /// transitivity builds on it; only crowd matches claim a partner, and a
  /// crowd match on an already-claimed object counts an exclusivity
  /// violation. Sequential schedule without checkpoints only.
  bool one_to_one = false;
  /// Worker threads for the round-parallel schedule's oracle fan-out;
  /// <= 1 keeps every oracle call on the calling thread, in batch order.
  int num_threads = 1;
  /// Transient-fault model for crowd asks. Null (the default) means no
  /// faults and the historical single-attempt path, byte for byte. When
  /// set, every crowd ask runs under `retry`: attempts that fault consume
  /// backoff (accounted in crowd.retry_backoff_us, never slept) but no
  /// oracle call, and the ask past `retry.max_attempts` escalates and
  /// cannot fault — so with a batch-safe oracle the final labels equal the
  /// fault-free run's at every thread count (fault-masked equivalence).
  AttemptFaultFn attempt_fault;
  RetryPolicy retry;
};

/// \brief Resolves the labels of one published batch of candidate
/// positions. Must return one label per input position, positionally.
///
/// This is the seam between the round engine and whatever answers the
/// questions: `LabelingSession::Run` supplies an oracle-backed source that
/// fans the calls out over a worker pool; the crowd orchestrator supplies
/// one that publishes the batch as HITs on the simulated platform.
using BatchLabelFn =
    std::function<Result<std::vector<Label>>(const std::vector<int32_t>&)>;

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// \brief The single labeling engine: transitive deduction over one owned
/// `ClusterGraph`, interleaved with crowdsourcing, under independent,
/// mixable policies — candidate input (materialized or streaming),
/// one-to-one deduction, schedule, and stop condition — all producing one
/// `LabelingReport`.
///
/// Policy matrix (anything else is rejected with InvalidArgument):
///
///   schedule         one_to_one           stop        input
///   sequential       either               any         materialized/stream
///   round-parallel   off                  any         materialized/stream
///   instant          off                  unbounded   materialized
///
/// The paper's algorithms are cells of this matrix: sequential/unbounded
/// (Section 3.2), round-parallel/unbounded (Algorithm 2), instant/unbounded
/// (Section 5.2), sequential/budget (the Whang et al. [27] setting), and
/// sequential/unbounded with one-to-one deduction (Section 8). Each cell is
/// byte-identical to a frozen port of the original engine, pinned by the
/// session equivalence suite.
///
/// Determinism: with a batch-safe oracle (see `LabelOracle`) the report is
/// identical for every `num_threads`.
class LabelingSession {
 public:
  explicit LabelingSession(LabelingSessionOptions options = {});
  ~LabelingSession();

  LabelingSession(LabelingSession&&) noexcept;
  LabelingSession& operator=(LabelingSession&&) noexcept;

  /// Labels `pairs` following `order` (a permutation of positions into
  /// `pairs`, validated once here — the session boundary), querying
  /// `oracle` for every pair it cannot deduce, under the configured
  /// schedule and stop policies.
  Result<LabelingReport> Run(const CandidateSet& pairs,
                             const std::vector<int32_t>& order,
                             LabelOracle& oracle);

  /// Round-parallel schedule with label resolution delegated to
  /// `label_batch` — the building block for crowd-platform publication
  /// strategies that answer a whole batch at once. `num_threads` is not
  /// consulted; the batch source owns its own parallelism.
  Result<LabelingReport> RunWithBatchSource(const CandidateSet& pairs,
                                            const std::vector<int32_t>& order,
                                            const BatchLabelFn& label_batch);

  /// Streaming drive: pulls rounds from `stream`, orders each round by
  /// `order_kind` (likelihood heuristics never need more than the round),
  /// and labels it under the configured schedule with deduction state —
  /// and any remaining budget — carried across rounds, so later rounds
  /// ride on earlier rounds' clusters for free. Candidates are dropped
  /// after their round: peak candidate memory is one round, which is what
  /// lets >1M-pair campaigns run without materializing the candidate set.
  ///
  /// `truth` is required for kOptimal/kWorst orders, `order_rng` for
  /// kRandom (both per `MakeLabelingOrder`). Sequential and round-parallel
  /// schedules only.
  ///
  /// Under the round-parallel schedule every Algorithm-2 scan of a round
  /// copies the persistent graph induced on the round's objects
  /// (`ClusterGraph::InducedOn`, built once per round), so a scan's work
  /// follows the round, not the objects seen; the round's crowd answers
  /// are folded into the persistent graph after the round.
  ///
  /// A non-null `checkpoint` with a non-empty path makes the campaign
  /// durable: the round frontier is written atomically to the checkpoint
  /// file every `checkpoint->every_rounds` rounds, and (with `resume`) a
  /// prior run's frontier is restored first — the stream is fast-forwarded
  /// past the completed rounds and the final report is byte-identical to
  /// an uninterrupted run. Rejects `one_to_one`.
  Result<LabelingReport> RunStream(
      CandidateStream& stream, OrderKind order_kind, LabelOracle& oracle,
      const GroundTruthOracle* truth = nullptr, Rng* order_rng = nullptr,
      const SessionCheckpointOptions* checkpoint = nullptr);

  // --- Incremental protocol (kInstantDecision schedule) ---
  //
  //   1. `Start()` returns the initial set of positions to publish.
  //   2. For every completed pair, `OnPairLabeled(pos, label)` returns the
  //      *newly* publishable positions (possibly empty — completing a
  //      matching pair never unlocks new work).
  //   3. When `num_available() == 0`, call `Finish()` to resolve every
  //      deduced label and obtain the report. Finish is idempotent.

  /// Computes and marks published the initial must-crowdsource set.
  /// `pairs` must be non-null and outlive the session.
  Result<std::vector<int32_t>> Start(const CandidateSet* pairs,
                                     std::vector<int32_t> order);

  /// Records the crowd label of a published pair and returns the positions
  /// that must now be published. `pos` must be published and unlabeled.
  Result<std::vector<int32_t>> OnPairLabeled(int32_t pos, Label label);

  /// Resolves all deduced labels. Requires `num_available() == 0`.
  Result<LabelingReport> Finish();

  /// Published-but-not-yet-labeled count: the pairs available to workers.
  int64_t num_available() const { return num_available_; }
  /// Pairs labeled by the crowd so far.
  int64_t num_crowdsourced() const { return num_crowdsourced_; }
  /// Total published so far (labeled or not).
  int64_t num_published() const { return num_published_; }

  const LabelingSessionOptions& options() const { return options_; }

 private:
  // InvalidArgument for `one_to_one` outside the sequential schedule or
  // under `checkpointing`; otherwise resets the graph and one-to-one state
  // over `num_objects`, the budget and the protocol state.
  Status BeginRun(int32_t num_objects, bool checkpointing = false);
  // Labels one pair (sequential schedule): transitivity, then one-to-one,
  // then the crowd; writes the outcome at `report.outcomes[report_pos]`.
  void LabelOnePair(const CandidatePair& pair, size_t report_pos,
                    LabelOracle& oracle, LabelingReport& report);
  // Round-parallel engine over a materialized candidate set, each scan on
  // a copy of the fresh graph, labels from `label_batch`.
  Result<LabelingReport> RunRounds(const CandidateSet& pairs,
                                   const std::vector<int32_t>& order,
                                   const BatchLabelFn& label_batch);
  // Instant-decision FIFO self-drive (Run with kInstantDecision).
  Result<LabelingReport> RunInstantFifo(const CandidateSet& pairs,
                                        const std::vector<int32_t>& order,
                                        LabelOracle& oracle);
  // Publishes every newly must-crowdsource position (instant protocol).
  std::vector<int32_t> InstantScan();

  LabelingSessionOptions options_;
  // The deduction state: the persistent graph of the sequential schedule
  // and of streams, the base every round-parallel scan copies, and the
  // instant protocol's Finish() scan.
  ClusterGraph graph_;
  // Objects a crowd match has claimed (`one_to_one` only).
  std::vector<bool> matched_;
  int64_t remaining_budget_ = -1;

  // Instant-protocol state. `labels_` holds crowd answers only.
  const CandidateSet* pairs_ = nullptr;
  std::vector<int32_t> order_;
  std::vector<std::optional<Label>> labels_;
  std::vector<bool> published_;
  int64_t num_available_ = 0;
  int64_t num_crowdsourced_ = 0;
  int64_t num_published_ = 0;
  bool started_ = false;
};

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

/// Validates that `order` is a permutation of `[0, n)`. Every session run
/// validates exactly once, at the session boundary.
Status ValidateOrder(const std::vector<int32_t>& order, size_t n);

/// \brief Identifies the pairs that can be crowdsourced in parallel
/// (Algorithm 3, ParallelCrowdsourcedPairs).
///
/// Scans the labeling order once, inserting already-labeled pairs with
/// their real labels and assuming every unlabeled pair is matching (the
/// assumption that maximizes deducibility). An unlabeled pair that is still
/// undeducible under this assumption can never become deducible from its
/// prefix, whatever labels arrive later, so it *must* be crowdsourced.
///
/// `labels_by_pos[i]` is the label of candidate position `i` if known.
/// Positions in `exclude_from_output` (e.g. already-published pairs, for
/// the instant-decision optimization) are still treated as must-crowdsource
/// pairs in the scan but are omitted from the returned set.
std::vector<int32_t> ParallelCrowdsourcedPairs(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    const std::vector<std::optional<Label>>& labels_by_pos,
    const std::vector<bool>* exclude_from_output = nullptr,
    ConflictPolicy policy = ConflictPolicy::kKeepFirst);

}  // namespace crowdjoin

#endif  // CROWDJOIN_CORE_LABELING_SESSION_H_
