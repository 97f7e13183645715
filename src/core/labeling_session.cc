#include "core/labeling_session.h"

#include <algorithm>
#include <deque>
#include <string>
#include <utility>

#include "common/macros.h"
#include "common/serialize.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/tracing.h"

namespace crowdjoin {

namespace {

// Stream-labeling instrumentation — the paper's cost metric (oracle calls
// vs deductions) as live counters. Updated once per stream round from
// report deltas, never per pair, so the dispatch overhead contract of
// bench/micro_session is untouched.
struct SessionMetrics {
  obs::Counter* rounds_total;
  obs::Counter* candidates_total;
  obs::Counter* oracle_calls_total;
  obs::Counter* deduced_total;
  obs::Counter* conflicts_total;

  static SessionMetrics& Get() {
    static SessionMetrics metrics{
        obs::MetricsRegistry::Global().GetCounter("session.rounds_total"),
        obs::MetricsRegistry::Global().GetCounter("session.candidates_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "session.oracle_calls_total"),
        obs::MetricsRegistry::Global().GetCounter("session.deduced_total"),
        obs::MetricsRegistry::Global().GetCounter("session.conflicts_total")};
    return metrics;
  }
};

// Retry telemetry (the ISSUE-9 fault-tolerance counters). `hit_attempts`
// observes the attempt count of every crowd ask made under a fault model
// (so its count is the number of faulted-mode asks); `hits_retried_total`
// counts the asks that needed more than one attempt; `retry_backoff_us`
// observes each computed backoff wait (accounted, not slept — simulation).
struct RetryMetrics {
  obs::Counter* hits_retried_total;
  obs::Histogram* hit_attempts;
  obs::Histogram* retry_backoff_us;

  static RetryMetrics& Get() {
    static RetryMetrics metrics{
        obs::MetricsRegistry::Global().GetCounter("crowd.hits_retried_total"),
        obs::MetricsRegistry::Global().GetHistogram("crowd.hit_attempts"),
        obs::MetricsRegistry::Global().GetHistogram("crowd.retry_backoff_us")};
    return metrics;
  }
};

// Jitter/coin key of the unordered pair, shared by every retry stream.
uint64_t PairRetryKey(ObjectId a, ObjectId b) {
  const ObjectId lo = a < b ? a : b;
  const ObjectId hi = a < b ? b : a;
  return (static_cast<uint64_t>(static_cast<uint32_t>(lo)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(hi));
}

// One crowd ask under the retry policy: burns through transiently faulted
// attempts (each costing accounted backoff, never an oracle call), then
// asks `ask` once. The ask after `max_attempts` faults is the escalation
// path and is not offered to the fault model, so termination is
// unconditional. All decisions are pure hashes — thread-safe, order-free.
template <typename AskFn>
Label AskWithRetry(ObjectId a, ObjectId b, const RetryPolicy& retry,
                   const AttemptFaultFn& fault, const AskFn& ask) {
  RetryMetrics& metrics = RetryMetrics::Get();
  const uint64_t key = PairRetryKey(a, b);
  int attempt = 1;
  while (attempt <= retry.max_attempts && fault(a, b, attempt)) {
    ++attempt;
    metrics.retry_backoff_us->Observe(retry.BackoffUs(attempt, key));
  }
  metrics.hit_attempts->Observe(attempt);
  if (attempt > 1) metrics.hits_retried_total->Inc();
  return ask();
}

// Durable-campaign telemetry: checkpoint writes/resumes and the size of
// each written frontier.
struct CheckpointMetrics {
  obs::Counter* writes_total;
  obs::Counter* resumes_total;
  obs::Histogram* bytes;

  static CheckpointMetrics& Get() {
    static CheckpointMetrics metrics{
        obs::MetricsRegistry::Global().GetCounter(
            "session.checkpoints_written_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "session.checkpoint_resumes_total"),
        obs::MetricsRegistry::Global().GetHistogram(
            "session.checkpoint_bytes")};
    return metrics;
  }
};

// The InvalidArgument for multi-threaded schedules on an oracle whose
// answers depend on global call order (the documented NoisyOracle hazard,
// now enforced instead of trusted).
Status CheckBatchSafe(const LabelOracle& oracle, int num_threads) {
  if (num_threads > 1 && !oracle.IsBatchSafe()) {
    return Status::InvalidArgument(
        "oracle is not batch-safe: a multi-threaded schedule would race its "
        "sequential answer stream; run with num_threads = 1 or use a "
        "batch-safe oracle such as HashNoisyOracle");
  }
  return Status::OK();
}

// InvalidArgument unless a checkpoint frontier's counts agree with each
// other and its budget fits `stop`. A valid checksum only proves the file
// is what its writer wrote: a frontier one outcome short would shift every
// later outcome, and a zero budget on an unbounded run would silently stop
// crowdsourcing.
Status CheckFrontierCounts(const SessionCheckpointState& state,
                           const StopPolicy& stop) {
  const int64_t n = state.num_candidates;
  const auto in_range = [n](int64_t count) {
    return count >= 0 && count <= n;
  };
  // Crowdsourced pairs the batch sizes leave unaccounted; -1 once a batch
  // is negative or overshoots.
  int64_t unbatched = state.num_crowdsourced;
  for (int64_t batch : state.crowdsourced_per_iteration) {
    unbatched = batch < 0 || batch > unbatched ? -1 : unbatched - batch;
  }
  if (static_cast<int64_t>(state.outcomes.size()) != n ||
      state.candidates_consumed != n || !in_range(state.num_crowdsourced) ||
      !in_range(state.num_deduced) || !in_range(state.num_unlabeled) ||
      state.num_crowdsourced + state.num_deduced + state.num_unlabeled != n ||
      unbatched != 0) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint counts disagree: %zu outcomes, %lld candidates, %lld "
        "consumed, %lld crowdsourced (%lld outside the batches), %lld "
        "deduced, %lld unlabeled",
        state.outcomes.size(), static_cast<long long>(n),
        static_cast<long long>(state.candidates_consumed),
        static_cast<long long>(state.num_crowdsourced),
        static_cast<long long>(unbatched),
        static_cast<long long>(state.num_deduced),
        static_cast<long long>(state.num_unlabeled)));
  }
  const bool budget_fits =
      stop.bounded()
          ? state.remaining_budget >= 0 && state.remaining_budget <= stop.budget
          : state.remaining_budget == -1;
  if (!budget_fits) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint budget %lld does not fit the run's %s stop policy",
        static_cast<long long>(state.remaining_budget),
        stop.bounded() ? "bounded" : "unbounded"));
  }
  return Status::OK();
}

// An empty report sized for one materialized run over `n` candidates.
LabelingReport EmptyReport(size_t n) {
  LabelingReport report;
  report.outcomes.resize(n);
  report.num_candidates = static_cast<int64_t>(n);
  report.num_stream_rounds = 1;
  return report;
}

// The oracle-backed batch source: resolves batch positions into `pairs`
// through `oracle`, fanned over `pool` (inline, in batch order, when null).
// The whole retry loop runs inside the fan-out task: every decision in it
// is a pure hash of the pair, so the outcome is the same whichever worker
// runs it.
BatchLabelFn OracleBatchSource(const CandidateSet& pairs, LabelOracle& oracle,
                               ThreadPool* pool,
                               const LabelingSessionOptions& options) {
  return [&pairs, &oracle, pool,
          &options](const std::vector<int32_t>& batch)
             -> Result<std::vector<Label>> {
    return ParallelMap(
        pool, static_cast<int64_t>(batch.size()), [&](int64_t i) {
          const CandidatePair& pair =
              pairs[static_cast<size_t>(batch[static_cast<size_t>(i)])];
          const auto ask = [&] { return oracle.GetLabel(pair.a, pair.b); };
          return options.attempt_fault
                     ? AskWithRetry(pair.a, pair.b, options.retry,
                                    options.attempt_fault, ask)
                     : ask();
        });
  };
}

}  // namespace

// ---------------------------------------------------------------------------
// Candidate streams
// ---------------------------------------------------------------------------

Result<CandidateSet> MaterializedCandidateStream::NextRound() {
  const size_t n = pairs_->size();
  if (cursor_ >= n) return CandidateSet{};
  const size_t take =
      round_size_ == 0 ? n - cursor_ : std::min(round_size_, n - cursor_);
  CandidateSet round(
      pairs_->begin() + static_cast<std::ptrdiff_t>(cursor_),
      pairs_->begin() + static_cast<std::ptrdiff_t>(cursor_ + take));
  cursor_ += take;
  return round;
}

// ---------------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------------

std::string_view SchedulePolicyToString(SchedulePolicy policy) {
  switch (policy) {
    case SchedulePolicy::kSequential:
      return "sequential";
    case SchedulePolicy::kRoundParallel:
      return "round-parallel";
    case SchedulePolicy::kInstantDecision:
      return "instant";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Shared building blocks
// ---------------------------------------------------------------------------

Status ValidateOrder(const std::vector<int32_t>& order, size_t n) {
  if (order.size() != n) {
    return Status::InvalidArgument(
        StrFormat("order has %zu entries for %zu pairs", order.size(), n));
  }
  std::vector<bool> seen(n, false);
  for (int32_t pos : order) {
    if (pos < 0 || static_cast<size_t>(pos) >= n) {
      return Status::InvalidArgument(
          StrFormat("order entry %d out of range [0, %zu)", pos, n));
    }
    if (seen[static_cast<size_t>(pos)]) {
      return Status::InvalidArgument(
          StrFormat("order entry %d appears twice", pos));
    }
    seen[static_cast<size_t>(pos)] = true;
  }
  return Status::OK();
}

namespace {

// The Algorithm-3 ordered scan: real labels are inserted, and every
// undeduced unlabeled pair is published and assumed matching.
std::vector<int32_t> ScanPublish(
    ClusterGraph& graph, const CandidateSet& pairs,
    const std::vector<int32_t>& order,
    const std::vector<std::optional<Label>>& labels_by_pos,
    const std::vector<bool>* exclude_from_output) {
  std::vector<int32_t> publish;
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const std::optional<Label>& label = labels_by_pos[static_cast<size_t>(pos)];
    if (label.has_value()) {
      graph.Add(pair.a, pair.b, *label);
      continue;
    }
    if (graph.Deduce(pair.a, pair.b) == Deduction::kUndeduced) {
      if (exclude_from_output == nullptr ||
          !(*exclude_from_output)[static_cast<size_t>(pos)]) {
        publish.push_back(pos);
      }
      // Suppose the pair is matching (Algorithm 3, line 11).
      graph.Add(pair.a, pair.b, Label::kMatching);
    }
    // Optimistically deducible pairs contribute nothing (their label is
    // already implied by the graph or contradicts the assumption).
  }
  return publish;
}

// The deduction scan (Algorithm 2, lines 6-8): inserts the labeled pairs in
// order and hands every unlabeled pair that its prefix decides to
// `on_deduced(pos, label)`. A deduced label is already implied by the
// graph, so it is not inserted. Returns the first undecided position, or
// -1 when every pair is labeled or deduced.
template <typename OnDeduced>
int32_t ScanDeduce(ClusterGraph& graph, const CandidateSet& pairs,
                   const std::vector<int32_t>& order,
                   const std::vector<std::optional<Label>>& labels,
                   const OnDeduced& on_deduced) {
  int32_t first_undecided = -1;
  for (int32_t pos : order) {
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    const std::optional<Label>& label = labels[static_cast<size_t>(pos)];
    if (label.has_value()) {
      graph.Add(pair.a, pair.b, *label);
      continue;
    }
    const Deduction deduction = graph.Deduce(pair.a, pair.b);
    if (deduction != Deduction::kUndeduced) {
      on_deduced(pos, DeductionToLabel(deduction));
    } else if (first_undecided < 0) {
      first_undecided = pos;
    }
  }
  return first_undecided;
}

// The Algorithm-2 round loop. Every scan runs on a fresh copy of `base`:
// an empty graph for materialized runs, or the persistent graph induced on
// a streamed round's objects, with `pairs` renumbered to its local ids.
// `label_batch` resolves batch positions, so it may read another copy of
// the pairs (the streamed round under its real ids).
Status RunRoundsImpl(const CandidateSet& pairs,
                     const std::vector<int32_t>& order,
                     const BatchLabelFn& label_batch, const ClusterGraph& base,
                     int64_t& remaining_budget, size_t report_offset,
                     LabelingReport& report) {
  const size_t n = pairs.size();
  std::vector<std::optional<Label>> labels(n);
  size_t num_labeled = 0;
  const bool without_labels =
      base.num_clusters() == base.num_objects() && base.num_edges() == 0;

  while (num_labeled < n) {
    obs::Span iteration_span("session.iteration", "session");
    // Identify and "publish" this round's batch (Algorithm 2, line 4).
    std::vector<int32_t> batch;
    {
      ClusterGraph graph = base;
      batch = ScanPublish(graph, pairs, order, labels,
                          /*exclude_from_output=*/nullptr);
    }
    // Without outside knowledge, undeduced pairs always remain publishable;
    // a base holding earlier streaming rounds' labels can make a whole
    // batch deducible before any money is spent.
    if (without_labels) CJ_CHECK(!batch.empty());
    std::vector<int32_t> publish = batch;
    if (remaining_budget >= 0 &&
        static_cast<int64_t>(publish.size()) > remaining_budget) {
      publish.resize(static_cast<size_t>(remaining_budget));
    }

    if (!publish.empty()) {
      // Crowdsource all batch pairs "simultaneously" (line 5), then merge
      // the answers back by batch position on this thread — the step that
      // makes the result independent of how the source resolved them.
      CJ_ASSIGN_OR_RETURN(const std::vector<Label> batch_labels,
                          label_batch(publish));
      if (batch_labels.size() != publish.size()) {
        return Status::InvalidArgument(StrFormat(
            "label source returned %zu labels for a batch of %zu pairs",
            batch_labels.size(), publish.size()));
      }
      for (size_t i = 0; i < publish.size(); ++i) {
        const int32_t pos = publish[i];
        labels[static_cast<size_t>(pos)] = batch_labels[i];
        report.outcomes[report_offset + static_cast<size_t>(pos)] =
            PairOutcome{batch_labels[i], LabelSource::kCrowdsourced};
        ++report.num_crowdsourced;
        ++num_labeled;
      }
      if (remaining_budget > 0) {
        remaining_budget -= static_cast<int64_t>(publish.size());
      }
      report.crowdsourced_per_iteration.push_back(
          static_cast<int64_t>(publish.size()));
    }

    // Deduce every pair that became deducible from its prefix of labeled
    // pairs: one ordered scan, cascading deductions.
    const size_t labeled_before = num_labeled;
    ClusterGraph graph = base;
    ScanDeduce(graph, pairs, order, labels, [&](int32_t pos, Label label) {
      labels[static_cast<size_t>(pos)] = label;
      report.outcomes[report_offset + static_cast<size_t>(pos)] =
          PairOutcome{label, LabelSource::kDeduced};
      ++report.num_deduced;
      ++num_labeled;
    });
    report.num_conflicts = graph.num_conflicts();

    if (publish.empty() && num_labeled == labeled_before) {
      // No batch was affordable and nothing came free: everything left is
      // out of the budget's reach (the unbounded invariant above proves
      // this branch needs an exhausted budget).
      CJ_CHECK(remaining_budget == 0);
      break;
    }
  }
  report.num_unlabeled += static_cast<int64_t>(n - num_labeled);
  return Status::OK();
}

}  // namespace

std::vector<int32_t> ParallelCrowdsourcedPairs(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    const std::vector<std::optional<Label>>& labels_by_pos,
    const std::vector<bool>* exclude_from_output, ConflictPolicy policy) {
  ClusterGraph graph(NumObjectsSpanned(pairs), policy);
  return ScanPublish(graph, pairs, order, labels_by_pos, exclude_from_output);
}

// ---------------------------------------------------------------------------
// LabelingSession
// ---------------------------------------------------------------------------

LabelingSession::LabelingSession(LabelingSessionOptions options)
    : options_(options), graph_(0, options.conflict_policy) {}

LabelingSession::~LabelingSession() = default;
LabelingSession::LabelingSession(LabelingSession&&) noexcept = default;
LabelingSession& LabelingSession::operator=(LabelingSession&&) noexcept =
    default;

Status LabelingSession::BeginRun(int32_t num_objects, bool checkpointing) {
  // The round scans and the checkpoint frontier carry the cluster graph
  // alone, so one-to-one deduction is a sequential, checkpoint-free rule.
  if (options_.one_to_one &&
      (options_.schedule != SchedulePolicy::kSequential || checkpointing)) {
    return Status::InvalidArgument(StrFormat(
        "one-to-one deduction needs the sequential schedule without "
        "checkpoints, not the %s schedule%s",
        std::string(SchedulePolicyToString(options_.schedule)).c_str(),
        checkpointing ? " with checkpoints" : ""));
  }
  graph_.Reset(num_objects);
  graph_.SetEdgeLogEnabled(false);
  matched_.assign(static_cast<size_t>(num_objects), false);
  remaining_budget_ = options_.stop.bounded() ? options_.stop.budget : -1;
  // Clear the incremental-protocol state so a session can run repeatedly.
  pairs_ = nullptr;
  order_.clear();
  labels_.clear();
  published_.clear();
  num_available_ = 0;
  num_crowdsourced_ = 0;
  num_published_ = 0;
  started_ = false;
  return Status::OK();
}

void LabelingSession::LabelOnePair(const CandidatePair& pair,
                                   size_t report_pos, LabelOracle& oracle,
                                   LabelingReport& report) {
  const Deduction deduction = graph_.Deduce(pair.a, pair.b);
  if (deduction != Deduction::kUndeduced) {
    // Already implied by the graph: nothing to insert.
    report.outcomes[report_pos] =
        PairOutcome{DeductionToLabel(deduction), LabelSource::kDeduced};
    ++report.num_deduced;
    return;
  }
  const size_t a = static_cast<size_t>(pair.a);
  const size_t b = static_cast<size_t>(pair.b);
  if (options_.one_to_one && (matched_[a] || matched_[b])) {
    // A pair touching a claimed object is non-matching — sound only when
    // the workload really is one-to-one. The graph learns it, so
    // transitivity can build on it.
    report.outcomes[report_pos] =
        PairOutcome{Label::kNonMatching, LabelSource::kDeduced};
    ++report.num_deduced;
    ++report.num_one_to_one_deduced;
    graph_.Add(pair.a, pair.b, Label::kNonMatching);
    return;
  }
  if (remaining_budget_ == 0) {
    ++report.num_unlabeled;  // money ran out; leave undecided
    return;
  }
  if (remaining_budget_ > 0) --remaining_budget_;
  const auto ask = [&] { return oracle.GetLabel(pair.a, pair.b); };
  const Label label =
      options_.attempt_fault
          ? AskWithRetry(pair.a, pair.b, options_.retry,
                         options_.attempt_fault, ask)
          : ask();
  report.outcomes[report_pos] = PairOutcome{label, LabelSource::kCrowdsourced};
  ++report.num_crowdsourced;
  report.crowdsourced_per_iteration.push_back(1);
  graph_.Add(pair.a, pair.b, label);
  // Only crowd matches claim a partner; deduced matches (which can only
  // come from transitivity) claim nothing.
  if (options_.one_to_one && label == Label::kMatching) {
    if (matched_[a] || matched_[b]) ++report.num_exclusivity_violations;
    matched_[a] = true;
    matched_[b] = true;
  }
}

Result<LabelingReport> LabelingSession::Run(const CandidateSet& pairs,
                                            const std::vector<int32_t>& order,
                                            LabelOracle& oracle) {
  // The instant path validates inside Start(); don't pay the check twice.
  if (options_.schedule != SchedulePolicy::kInstantDecision) {
    CJ_RETURN_IF_ERROR(ValidateOrder(order, pairs.size()));
  }
  CJ_RETURN_IF_ERROR(BeginRun(NumObjectsSpanned(pairs)));
  switch (options_.schedule) {
    case SchedulePolicy::kSequential: {
      LabelingReport report = EmptyReport(pairs.size());
      for (int32_t pos : order) {
        LabelOnePair(pairs[static_cast<size_t>(pos)],
                     static_cast<size_t>(pos), oracle, report);
      }
      report.num_conflicts = graph_.num_conflicts();
      return report;
    }
    case SchedulePolicy::kRoundParallel: {
      CJ_RETURN_IF_ERROR(CheckBatchSafe(oracle, options_.num_threads));
      // One pool shared by every round of this run. Created only when real
      // parallelism was requested: the single-threaded path calls the
      // oracle inline in batch order, which keeps order-dependent oracles
      // (e.g. NoisyOracle's sequential RNG stream) exactly as deterministic
      // as the pre-threading implementation.
      std::optional<ThreadPool> pool;
      if (options_.num_threads > 1) pool.emplace(options_.num_threads);
      return RunRounds(
          pairs, order,
          OracleBatchSource(pairs, oracle,
                            pool.has_value() ? &*pool : nullptr, options_));
    }
    case SchedulePolicy::kInstantDecision:
      return RunInstantFifo(pairs, order, oracle);
  }
  return Status::InvalidArgument("unknown schedule policy");
}

Result<LabelingReport> LabelingSession::RunRounds(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    const BatchLabelFn& label_batch) {
  LabelingReport report = EmptyReport(pairs.size());
  CJ_RETURN_IF_ERROR(RunRoundsImpl(pairs, order, label_batch, graph_,
                                   remaining_budget_, /*report_offset=*/0,
                                   report));
  return report;
}

Result<LabelingReport> LabelingSession::RunWithBatchSource(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    const BatchLabelFn& label_batch) {
  if (options_.schedule != SchedulePolicy::kRoundParallel) {
    return Status::InvalidArgument(
        "RunWithBatchSource requires the round-parallel schedule");
  }
  CJ_RETURN_IF_ERROR(ValidateOrder(order, pairs.size()));
  CJ_RETURN_IF_ERROR(BeginRun(NumObjectsSpanned(pairs)));
  return RunRounds(pairs, order, label_batch);
}

Result<LabelingReport> LabelingSession::RunStream(
    CandidateStream& stream, OrderKind order_kind, LabelOracle& oracle,
    const GroundTruthOracle* truth, Rng* order_rng,
    const SessionCheckpointOptions* checkpoint) {
  if (options_.schedule == SchedulePolicy::kInstantDecision) {
    return Status::InvalidArgument(
        "the instant-decision schedule cannot drive a candidate stream");
  }
  const bool checkpointing =
      checkpoint != nullptr && !checkpoint->path.empty();
  CJ_RETURN_IF_ERROR(BeginRun(/*num_objects=*/0, checkpointing));
  std::optional<ThreadPool> pool;
  if (options_.schedule == SchedulePolicy::kRoundParallel) {
    CJ_RETURN_IF_ERROR(CheckBatchSafe(oracle, options_.num_threads));
    if (options_.num_threads > 1) pool.emplace(options_.num_threads);
  }

  SessionMetrics& metrics = SessionMetrics::Get();
  LabelingReport report;
  int32_t num_objects = 0;
  int64_t completed_rounds = 0;
  int64_t candidates_consumed = 0;
  // Object id -> the round's local id, -1 outside the round being scanned
  // (round-parallel only).
  std::vector<int32_t> local_of;

  if (checkpointing) {
    // Record every Add from here on; the log *is* the durable graph.
    graph_.SetEdgeLogEnabled(true);
    if (checkpoint->resume) {
      auto loaded = LoadSessionCheckpoint(checkpoint->path);
      if (loaded.ok()) {
        const SessionCheckpointState& state = *loaded;
        if (state.fingerprint != checkpoint->fingerprint) {
          return Status::FailedPrecondition(StrFormat(
              "checkpoint %s was written by a different campaign "
              "(fingerprint %llx, expected %llx); refusing to resume",
              checkpoint->path.c_str(),
              static_cast<unsigned long long>(state.fingerprint),
              static_cast<unsigned long long>(checkpoint->fingerprint)));
        }
        CJ_RETURN_IF_ERROR(CheckFrontierCounts(state, options_.stop));
        // Fast-forward first: the stream is deterministic, so the completed
        // rounds re-emit the same candidates; consume and verify them
        // without labeling anything (and without touching the order RNG).
        // Nothing is restored until the stream has vouched for the file's
        // counts, so a malformed object count cannot size the graph.
        int64_t skipped_candidates = 0;
        int32_t skipped_objects = 0;
        for (int64_t i = 0; i < state.completed_rounds; ++i) {
          CJ_ASSIGN_OR_RETURN(const CandidateSet skipped,
                              stream.NextRound());
          if (skipped.empty()) {
            return Status::FailedPrecondition(
                "stream exhausted while fast-forwarding past checkpointed "
                "rounds; the stream does not match the checkpoint");
          }
          skipped_candidates += static_cast<int64_t>(skipped.size());
          skipped_objects =
              std::max(skipped_objects, NumObjectsSpanned(skipped));
        }
        if (skipped_candidates != state.candidates_consumed) {
          return Status::FailedPrecondition(StrFormat(
              "stream replayed %lld candidates over the checkpointed "
              "rounds, expected %lld; the stream does not match the "
              "checkpoint",
              static_cast<long long>(skipped_candidates),
              static_cast<long long>(state.candidates_consumed)));
        }
        if (skipped_objects != state.num_objects) {
          return Status::FailedPrecondition(StrFormat(
              "stream spans %d objects over the checkpointed rounds, "
              "expected %d; the stream does not match the checkpoint",
              skipped_objects, state.num_objects));
        }
        // Restore the report-so-far, the budget, the graph (by replaying
        // the Add log — re-logged as it replays, so the next checkpoint
        // carries the full history), and the order-RNG stream position.
        report.num_candidates = state.num_candidates;
        report.num_crowdsourced = state.num_crowdsourced;
        report.num_deduced = state.num_deduced;
        report.num_unlabeled = state.num_unlabeled;
        report.num_stream_rounds = state.num_stream_rounds;
        report.crowdsourced_per_iteration = state.crowdsourced_per_iteration;
        report.outcomes = state.outcomes;
        remaining_budget_ = state.remaining_budget;
        num_objects = state.num_objects;
        graph_.EnsureObjects(num_objects);
        for (const LoggedEdge& edge : state.edge_log) {
          graph_.Add(edge.a, edge.b, edge.label);
        }
        if (state.has_order_rng && order_rng != nullptr) {
          order_rng->RestoreState(state.order_rng);
        }
        completed_rounds = state.completed_rounds;
        // The killed process took its round counters with it: credit the
        // restored rounds here so the resumed run's exported session.*
        // totals equal an uninterrupted run's.
        metrics.rounds_total->Inc(state.completed_rounds);
        metrics.candidates_total->Inc(state.num_candidates);
        metrics.oracle_calls_total->Inc(state.num_crowdsourced);
        metrics.deduced_total->Inc(state.num_deduced);
        CheckpointMetrics::Get().resumes_total->Inc();
        candidates_consumed = state.candidates_consumed;
      } else if (loaded.status().code() != StatusCode::kNotFound) {
        return loaded.status();  // corrupt checkpoint: surface, don't clobber
      }
    }
  }

  // Writes the current frontier after a completed round (no-op between
  // checkpoint intervals or when checkpointing is off).
  const auto after_round = [&](size_t round_size) -> Status {
    ++completed_rounds;
    candidates_consumed += static_cast<int64_t>(round_size);
    if (!checkpointing) return Status::OK();
    const int64_t every =
        checkpoint->every_rounds < 1 ? 1 : checkpoint->every_rounds;
    if (completed_rounds % every != 0) return Status::OK();
    SessionCheckpointState state;
    state.fingerprint = checkpoint->fingerprint;
    state.completed_rounds = completed_rounds;
    state.candidates_consumed = candidates_consumed;
    state.num_objects = num_objects;
    state.remaining_budget = remaining_budget_;
    state.num_candidates = report.num_candidates;
    state.num_crowdsourced = report.num_crowdsourced;
    state.num_deduced = report.num_deduced;
    state.num_unlabeled = report.num_unlabeled;
    state.num_stream_rounds = report.num_stream_rounds;
    state.crowdsourced_per_iteration = report.crowdsourced_per_iteration;
    state.outcomes = report.outcomes;
    state.edge_log = graph_.edge_log();
    if (order_rng != nullptr) {
      state.has_order_rng = true;
      state.order_rng = order_rng->SaveState();
    }
    const std::string encoded = EncodeSessionCheckpoint(state);
    CJ_RETURN_IF_ERROR(AtomicWriteFile(checkpoint->path, encoded));
    CheckpointMetrics& ckpt_metrics = CheckpointMetrics::Get();
    ckpt_metrics.writes_total->Inc();
    ckpt_metrics.bytes->Observe(static_cast<int64_t>(encoded.size()));
    if (checkpoint->after_write) checkpoint->after_write(completed_rounds);
    return Status::OK();
  };

  while (true) {
    CJ_ASSIGN_OR_RETURN(const CandidateSet round, stream.NextRound());
    if (round.empty()) break;  // end of stream
    // Round-granular telemetry from report deltas; the span closes at the
    // end of this loop iteration, covering ordering + labeling.
    obs::Span round_span("session.round", "session");
    const int64_t crowd_before = report.num_crowdsourced;
    const int64_t deduced_before = report.num_deduced;
    const auto record_round = [&] {
      metrics.rounds_total->Inc();
      metrics.candidates_total->Inc(static_cast<int64_t>(round.size()));
      metrics.oracle_calls_total->Inc(report.num_crowdsourced - crowd_before);
      metrics.deduced_total->Inc(report.num_deduced - deduced_before);
    };
    ++report.num_stream_rounds;
    num_objects = std::max(num_objects, NumObjectsSpanned(round));
    graph_.EnsureObjects(num_objects);
    matched_.resize(static_cast<size_t>(num_objects), false);
    CJ_ASSIGN_OR_RETURN(
        const std::vector<int32_t> order,
        MakeLabelingOrder(round, order_kind, truth, order_rng));
    const size_t offset = report.outcomes.size();
    report.outcomes.resize(offset + round.size());
    report.num_candidates += static_cast<int64_t>(round.size());

    if (options_.schedule == SchedulePolicy::kSequential) {
      // The persistent graph carries deduction state across rounds, so
      // later rounds ride on earlier clusters for free.
      for (int32_t pos : order) {
        LabelOnePair(round[static_cast<size_t>(pos)],
                     offset + static_cast<size_t>(pos), oracle, report);
      }
      record_round();
      CJ_RETURN_IF_ERROR(after_round(round.size()));
      continue;
    }

    // Round-parallel: every scan starts from the persistent graph induced
    // on the round's objects, and the round's crowd answers are folded back
    // in afterwards. Deduced labels need no fold — they are implied by the
    // graph that produced them. The prefix-based scan semantics that keep a
    // one-round stream byte-identical to the materialized run rule out
    // scanning the persistent graph in place. The induced base holds only
    // what the round can see (its objects' clusters and the edges between
    // them), so each scan copies O(round) state, not O(objects seen). The
    // scans read the round renumbered to local ids; the oracle reads it
    // under its real ids, at the same positions.
    std::vector<ObjectId> objects;  // local id -> object, first appearance
    CandidateSet local_round = round;
    local_of.resize(static_cast<size_t>(num_objects), -1);
    const auto to_local = [&](ObjectId x) {
      int32_t& id = local_of[static_cast<size_t>(x)];
      if (id < 0) {
        id = static_cast<int32_t>(objects.size());
        objects.push_back(x);
      }
      return id;
    };
    for (CandidatePair& pair : local_round) {
      pair.a = to_local(pair.a);
      pair.b = to_local(pair.b);
    }
    for (ObjectId x : objects) local_of[static_cast<size_t>(x)] = -1;
    const ClusterGraph base = graph_.InducedOn(objects);
    CJ_RETURN_IF_ERROR(RunRoundsImpl(
        local_round, order,
        OracleBatchSource(round, oracle, pool.has_value() ? &*pool : nullptr,
                          options_),
        base, remaining_budget_, offset, report));
    for (int32_t pos : order) {
      const std::optional<PairOutcome>& outcome =
          report.outcomes[offset + static_cast<size_t>(pos)];
      if (outcome.has_value() &&
          outcome->source == LabelSource::kCrowdsourced) {
        const CandidatePair& pair = round[static_cast<size_t>(pos)];
        graph_.Add(pair.a, pair.b, outcome->label);
      }
    }
    record_round();
    CJ_RETURN_IF_ERROR(after_round(round.size()));
  }

  // Round-parallel scans counted conflicts on throwaway copies; the
  // stream's total lives on the persistent graph.
  report.num_conflicts = graph_.num_conflicts();
  // Conflicts are only final once the stream has drained (per-round values
  // count throwaway scan copies), so the counter gets one stream-total Inc.
  metrics.conflicts_total->Inc(report.num_conflicts);
  return report;
}

// ---------------------------------------------------------------------------
// Instant-decision protocol
// ---------------------------------------------------------------------------

std::vector<int32_t> LabelingSession::InstantScan() {
  std::vector<int32_t> fresh = ParallelCrowdsourcedPairs(
      *pairs_, order_, labels_, &published_, options_.conflict_policy);
  for (int32_t pos : fresh) {
    published_[static_cast<size_t>(pos)] = true;
    ++num_published_;
    ++num_available_;
  }
  return fresh;
}

Result<std::vector<int32_t>> LabelingSession::Start(
    const CandidateSet* pairs, std::vector<int32_t> order) {
  if (pairs == nullptr) {
    return Status::InvalidArgument("Start() needs a candidate set, got null");
  }
  if (options_.schedule != SchedulePolicy::kInstantDecision) {
    return Status::InvalidArgument(
        "Start() requires the instant-decision schedule");
  }
  if (options_.stop.bounded()) {
    return Status::InvalidArgument(
        "the instant-decision schedule does not support a budget");
  }
  if (started_) {
    return Status::FailedPrecondition("Start() called twice");
  }
  CJ_RETURN_IF_ERROR(ValidateOrder(order, pairs->size()));
  // Finish() sizes the graph for its own scan.
  CJ_RETURN_IF_ERROR(BeginRun(/*num_objects=*/0));
  pairs_ = pairs;
  order_ = std::move(order);
  labels_.assign(pairs->size(), std::nullopt);
  published_.assign(pairs->size(), false);
  started_ = true;
  return InstantScan();
}

Result<std::vector<int32_t>> LabelingSession::OnPairLabeled(int32_t pos,
                                                            Label label) {
  if (!started_) {
    return Status::FailedPrecondition("OnPairLabeled() before Start()");
  }
  if (pos < 0 || static_cast<size_t>(pos) >= pairs_->size()) {
    return Status::OutOfRange(StrFormat("position %d out of range", pos));
  }
  if (!published_[static_cast<size_t>(pos)]) {
    return Status::FailedPrecondition(
        StrFormat("pair at position %d was never published", pos));
  }
  if (labels_[static_cast<size_t>(pos)].has_value()) {
    return Status::AlreadyExists(
        StrFormat("pair at position %d is already labeled", pos));
  }
  labels_[static_cast<size_t>(pos)] = label;
  --num_available_;
  ++num_crowdsourced_;
  // Completing a matching pair cannot unlock new publishable pairs (the
  // scan already assumed it was matching), so skip the rescan.
  if (label == Label::kMatching) return std::vector<int32_t>{};
  return InstantScan();
}

Result<LabelingReport> LabelingSession::Finish() {
  if (!started_) {
    return Status::FailedPrecondition("Finish() before Start()");
  }
  if (num_available_ != 0) {
    return Status::FailedPrecondition(
        StrFormat("%lld published pairs are still unlabeled",
                  static_cast<long long>(num_available_)));
  }
  LabelingReport report = EmptyReport(pairs_->size());
  report.num_crowdsourced = num_crowdsourced_;
  for (size_t pos = 0; pos < labels_.size(); ++pos) {
    if (labels_[pos].has_value()) {
      report.outcomes[pos] =
          PairOutcome{*labels_[pos], LabelSource::kCrowdsourced};
    }
  }
  // The scan reads the crowd answers only, so Finish is idempotent.
  graph_.Reset(NumObjectsSpanned(*pairs_));
  const int32_t undecided = ScanDeduce(
      graph_, *pairs_, order_, labels_, [&](int32_t pos, Label label) {
        report.outcomes[static_cast<size_t>(pos)] =
            PairOutcome{label, LabelSource::kDeduced};
        ++report.num_deduced;
      });
  if (undecided >= 0) {
    return Status::Internal(StrFormat(
        "pair at position %d is neither labeled nor deducible", undecided));
  }
  report.num_conflicts = graph_.num_conflicts();
  return report;
}

Result<LabelingReport> LabelingSession::RunInstantFifo(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    LabelOracle& oracle) {
  // Synchronous FIFO drive of the incremental protocol: crowdsource pairs
  // in publication order, re-planning after every answer — what the
  // "Non-Parallel" campaign does without a latency model.
  CJ_ASSIGN_OR_RETURN(const std::vector<int32_t> initial,
                      Start(&pairs, std::vector<int32_t>(order)));
  std::deque<int32_t> pending(initial.begin(), initial.end());
  while (!pending.empty()) {
    const int32_t pos = pending.front();
    pending.pop_front();
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    CJ_ASSIGN_OR_RETURN(
        const std::vector<int32_t> fresh,
        OnPairLabeled(pos, oracle.GetLabel(pair.a, pair.b)));
    pending.insert(pending.end(), fresh.begin(), fresh.end());
  }
  return Finish();
}

}  // namespace crowdjoin
