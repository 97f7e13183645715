#include "crowd/orchestrator.h"

#include <cmath>
#include <cstdlib>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/macros.h"
#include "common/thread_pool.h"
#include "crowd/platform.h"
#include "obs/metrics.h"

namespace crowdjoin {

namespace {

PairTask MakeTask(const CandidateSet& pairs, int32_t pos) {
  const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
  return {pos, pair.a, pair.b, pair.likelihood};
}

// Pops up to `limit` positions from the front of `queue` into one HIT.
std::vector<PairTask> TakeHitTasks(const CandidateSet& pairs,
                                   std::deque<int32_t>& queue, int limit) {
  std::vector<PairTask> tasks;
  while (!queue.empty() && static_cast<int>(tasks.size()) < limit) {
    tasks.push_back(MakeTask(pairs, queue.front()));
    queue.pop_front();
  }
  return tasks;
}

LabelingSession MakeInstantSession() {
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kInstantDecision;
  return LabelingSession(options);
}

// Recovery-path telemetry for the HIT pump.
struct PumpMetrics {
  obs::Counter* publish_retries_total;
  obs::Counter* hits_reposted_total;
  obs::Counter* reask_hits_total;
  obs::Histogram* retry_backoff_us;

  static PumpMetrics& Get() {
    static PumpMetrics metrics = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      return PumpMetrics{registry.GetCounter("crowd.publish_retries_total"),
                         registry.GetCounter("crowd.hits_reposted_total"),
                         registry.GetCounter("crowd.reask_hits_total"),
                         registry.GetHistogram("crowd.retry_backoff_us")};
    }();
    return metrics;
  }
};

/// \brief The fault-recovery pump every AMT campaign publishes through.
///
/// Wraps a `CrowdPlatform` and turns its raw HIT completions into *final*
/// per-pair answers: transient publish failures are retried (exponential
/// backoff, accounted but never slept — simulated time belongs to the
/// platform), expired HITs are reposted up to `retry.max_attempts`, and
/// pairs whose vote margin is within `retry.reask_margin` of a tie are
/// republished once and finalized by combined majority over both HITs'
/// assignments. With no fault plan and `reask_margin == 0` every branch
/// is dead and the pump is a pass-through — campaigns without faults are
/// byte-identical to the pre-fault code.
class HitDriver {
 public:
  HitDriver(CrowdPlatform& platform, const CrowdConfig& config)
      : platform_(platform), retry_(config.retry) {
    if (retry_.seed == 0) retry_.seed = config.seed;
  }

  /// Publishes one HIT, retrying transient (`kInternal`) failures.
  Status Publish(std::vector<PairTask> tasks) {
    Pending pending;
    pending.tasks = std::move(tasks);
    return PublishTracked(std::move(pending));
  }

  /// HITs published (or republished) and not yet finalized.
  bool HasInFlight() const { return in_flight_ > 0; }

  /// Runs the platform until at least one pair answer becomes final and
  /// returns that batch; empty when nothing is in flight.
  Result<std::vector<CompletedPair>> WaitNextBatch();

  int64_t num_publish_retries() const { return num_publish_retries_; }
  int64_t num_hits_reposted() const { return num_hits_reposted_; }
  int64_t num_reask_hits() const { return num_reask_hits_; }

 private:
  struct Pending {
    std::vector<PairTask> tasks;
    int attempt = 1;     // repost attempts after expiry
    bool is_reask = false;
    // Reask HITs carry the original HIT's votes, merged at finalize.
    std::vector<int> prior_votes;
    int prior_assignments = 0;
  };

  Status PublishTracked(Pending pending);

  CrowdPlatform& platform_;
  RetryPolicy retry_;
  std::unordered_map<int64_t, Pending> pending_;
  int64_t in_flight_ = 0;
  int64_t num_publish_retries_ = 0;
  int64_t num_hits_reposted_ = 0;
  int64_t num_reask_hits_ = 0;
};

Status HitDriver::PublishTracked(Pending pending) {
  int attempt = 1;
  while (true) {
    Result<int64_t> published = platform_.PublishHit(pending.tasks);
    if (published.ok()) {
      pending_.emplace(*published, std::move(pending));
      ++in_flight_;
      return Status::OK();
    }
    if (published.status().code() != StatusCode::kInternal ||
        attempt >= retry_.max_attempts) {
      return published.status();
    }
    ++attempt;
    ++num_publish_retries_;
    PumpMetrics& metrics = PumpMetrics::Get();
    metrics.publish_retries_total->Inc();
    metrics.retry_backoff_us->Observe(retry_.BackoffUs(
        attempt, static_cast<uint64_t>(pending.tasks.front().position)));
  }
}

Result<std::vector<CompletedPair>> HitDriver::WaitNextBatch() {
  while (in_flight_ > 0) {
    const std::optional<HitResult> completed =
        platform_.RunUntilNextHitCompletion();
    // In-flight HITs always have pending events: abandonment immediately
    // reschedules the reopened slot and expiry surfaces exactly one
    // (expired) result, so the platform cannot go idle under us.
    CJ_CHECK(completed.has_value());
    const auto it = pending_.find(completed->hit_id);
    CJ_CHECK(it != pending_.end());
    Pending pending = std::move(it->second);
    pending_.erase(it);
    --in_flight_;

    if (completed->expired && pending.attempt < retry_.max_attempts) {
      ++num_hits_reposted_;
      PumpMetrics& metrics = PumpMetrics::Get();
      metrics.hits_reposted_total->Inc();
      metrics.retry_backoff_us->Observe(retry_.BackoffUs(
          pending.attempt + 1,
          static_cast<uint64_t>(pending.tasks.front().position)));
      ++pending.attempt;
      CJ_RETURN_IF_ERROR(PublishTracked(std::move(pending)));
      continue;
    }

    CJ_CHECK(completed->pairs.size() == pending.tasks.size());
    std::vector<CompletedPair> final_pairs;
    Pending reask;
    const int total_assignments =
        completed->num_assignments + pending.prior_assignments;
    for (size_t t = 0; t < completed->pairs.size(); ++t) {
      const int votes = completed->pairs[t].matching_votes +
                        (pending.is_reask
                             ? pending.prior_votes[static_cast<size_t>(t)]
                             : 0);
      // A first-round pair too close to a tie gets one extra HIT's worth
      // of assignments before its label is trusted. Expired partials and
      // reask results themselves are final — re-asking those again could
      // ping-pong forever.
      if (!pending.is_reask && !completed->expired &&
          retry_.reask_margin > 0 &&
          std::abs(2 * votes - total_assignments) <= retry_.reask_margin) {
        reask.tasks.push_back(pending.tasks[t]);
        reask.prior_votes.push_back(votes);
        continue;
      }
      final_pairs.push_back({completed->pairs[t].position,
                             2 * votes > total_assignments
                                 ? Label::kMatching
                                 : Label::kNonMatching,
                             votes});
    }
    if (!reask.tasks.empty()) {
      reask.is_reask = true;
      reask.prior_assignments = completed->num_assignments;
      ++num_reask_hits_;
      PumpMetrics::Get().reask_hits_total->Inc();
      CJ_RETURN_IF_ERROR(PublishTracked(std::move(reask)));
    }
    if (!final_pairs.empty()) return final_pairs;
  }
  return std::vector<CompletedPair>{};
}

// The platform's and the HIT pump's share of the campaign stats.
AmtRunStats PlatformStats(const CrowdPlatform& platform,
                          const HitDriver& driver) {
  AmtRunStats stats;
  stats.num_hits = platform.num_hits_published();
  stats.num_assignments = platform.num_assignments_completed();
  stats.total_hours = platform.now_hours();
  stats.total_cost_cents = platform.total_cost_cents();
  stats.num_publish_retries = driver.num_publish_retries();
  stats.num_hits_reposted = driver.num_hits_reposted();
  stats.num_reask_hits = driver.num_reask_hits();
  stats.num_assignments_abandoned = platform.num_assignments_abandoned();
  stats.num_hits_expired = platform.num_hits_expired();
  return stats;
}

// Campaign stats of a fully-labeled session report.
AmtRunStats ReportStats(const LabelingReport& report,
                        const CrowdPlatform& platform,
                        const HitDriver& driver) {
  AmtRunStats stats = PlatformStats(platform, driver);
  stats.final_labels.reserve(report.outcomes.size());
  for (const std::optional<PairOutcome>& outcome : report.outcomes) {
    CJ_CHECK(outcome.has_value());
    stats.final_labels.push_back(outcome->label);
  }
  stats.num_crowdsourced_pairs = report.num_crowdsourced;
  stats.num_deduced_pairs = report.num_deduced;
  return stats;
}

// Session options of the oracle-driven round-parallel campaigns: the
// oracle fan-out over `config.num_threads`, and with a fault plan the
// per-pair transient fault model under `config.retry` (its jitter seed
// defaulting to the crowd seed). Faulted attempts burn backoff and retry
// accounting but never an oracle call, so a transient-only plan
// reproduces the fault-free labels exactly.
LabelingSessionOptions RoundParallelOptions(const CrowdConfig& config) {
  LabelingSessionOptions options;
  options.schedule = SchedulePolicy::kRoundParallel;
  options.num_threads = config.num_threads;
  if (config.faults.enabled()) {
    options.attempt_fault = FaultInjector(config.faults).AsAttemptFaultFn();
    options.retry = config.retry;
    if (options.retry.seed == 0) options.retry.seed = config.seed;
  }
  return options;
}

// The batch-safe oracle `config` asks for: exact ground truth when both
// error rates are zero, otherwise a `HashNoisyOracle` seeded with
// `config.seed`. `truth` must outlive the oracle.
std::unique_ptr<LabelOracle> MakeCampaignOracle(
    const CrowdConfig& config, const GroundTruthOracle& truth) {
  if (config.false_negative_rate == 0.0 &&
      config.false_positive_rate == 0.0) {
    return std::make_unique<GroundTruthOracle>(truth);
  }
  return std::make_unique<HashNoisyOracle>(
      &truth, config.false_negative_rate, config.false_positive_rate,
      config.seed);
}

}  // namespace

Result<AmtRunStats> RunNonTransitiveAmt(const CandidateSet& pairs,
                                        const CrowdConfig& config,
                                        const GroundTruthOracle& truth) {
  CrowdPlatform platform(config, &truth);
  HitDriver driver(platform, config);
  std::deque<int32_t> queue;
  for (size_t i = 0; i < pairs.size(); ++i) {
    queue.push_back(static_cast<int32_t>(i));
  }
  while (!queue.empty()) {
    CJ_RETURN_IF_ERROR(
        driver.Publish(TakeHitTasks(pairs, queue, config.pairs_per_hit)));
  }

  std::vector<Label> final_labels(pairs.size(), Label::kNonMatching);
  while (driver.HasInFlight()) {
    CJ_ASSIGN_OR_RETURN(const std::vector<CompletedPair> batch,
                        driver.WaitNextBatch());
    for (const CompletedPair& pair : batch) {
      final_labels[static_cast<size_t>(pair.position)] = pair.label;
    }
  }
  AmtRunStats stats = PlatformStats(platform, driver);
  stats.final_labels = std::move(final_labels);
  stats.num_crowdsourced_pairs = static_cast<int64_t>(pairs.size());
  return stats;
}

Result<AmtRunStats> RunTransitiveAmt(const CandidateSet& pairs,
                                     const std::vector<int32_t>& order,
                                     const CrowdConfig& config,
                                     const GroundTruthOracle& truth) {
  CrowdPlatform platform(config, &truth);
  HitDriver driver(platform, config);
  LabelingSession session = MakeInstantSession();
  std::deque<int32_t> buffer;

  CJ_ASSIGN_OR_RETURN(const std::vector<int32_t> initial,
                      session.Start(&pairs, order));
  buffer.insert(buffer.end(), initial.begin(), initial.end());

  while (true) {
    // Publish full HITs; flush a partial HIT only when the platform would
    // otherwise go idle (nothing in flight to produce more work).
    while (static_cast<int>(buffer.size()) >= config.pairs_per_hit) {
      CJ_RETURN_IF_ERROR(
          driver.Publish(TakeHitTasks(pairs, buffer, config.pairs_per_hit)));
    }
    if (!driver.HasInFlight()) {
      if (buffer.empty()) break;  // campaign complete
      CJ_RETURN_IF_ERROR(
          driver.Publish(TakeHitTasks(pairs, buffer, config.pairs_per_hit)));
    }
    CJ_ASSIGN_OR_RETURN(const std::vector<CompletedPair> batch,
                        driver.WaitNextBatch());
    for (const CompletedPair& pair : batch) {
      CJ_ASSIGN_OR_RETURN(const std::vector<int32_t> fresh,
                          session.OnPairLabeled(pair.position, pair.label));
      buffer.insert(buffer.end(), fresh.begin(), fresh.end());
    }
  }

  CJ_ASSIGN_OR_RETURN(const LabelingReport labeling, session.Finish());
  return ReportStats(labeling, platform, driver);
}

Result<AmtRunStats> RunParallelAmt(const CandidateSet& pairs,
                                   const std::vector<int32_t>& order,
                                   const CrowdConfig& config,
                                   const GroundTruthOracle& truth) {
  CrowdPlatform platform(config, &truth);
  HitDriver driver(platform, config);
  // Label resolution comes from the platform (which already services a
  // round's HITs concurrently via the simulated worker pool), so the
  // session is constructed without a thread count — config.num_threads
  // applies to oracle-driven local labeling (RunLocalParallelLabeling).
  LabelingSessionOptions session_options;
  session_options.schedule = SchedulePolicy::kRoundParallel;
  LabelingSession session(session_options);
  CJ_ASSIGN_OR_RETURN(
      const LabelingReport labeling,
      session.RunWithBatchSource(
          pairs, order,
          [&](const std::vector<int32_t>& batch)
              -> Result<std::vector<Label>> {
            // Publish the whole round simultaneously, batched into HITs.
            std::deque<int32_t> queue(batch.begin(), batch.end());
            while (!queue.empty()) {
              CJ_RETURN_IF_ERROR(driver.Publish(
                  TakeHitTasks(pairs, queue, config.pairs_per_hit)));
            }
            // Algorithm 2's round barrier: wait for every HIT (including
            // reposts and re-asks) before the deduction scan, collecting
            // final votes by batch slot.
            std::unordered_map<int32_t, size_t> slot_of;
            for (size_t i = 0; i < batch.size(); ++i) {
              slot_of[batch[i]] = i;
            }
            std::vector<Label> labels(batch.size(), Label::kNonMatching);
            size_t num_answered = 0;
            while (driver.HasInFlight()) {
              CJ_ASSIGN_OR_RETURN(const std::vector<CompletedPair> finals,
                                  driver.WaitNextBatch());
              for (const CompletedPair& pair : finals) {
                const auto it = slot_of.find(pair.position);
                CJ_CHECK(it != slot_of.end());
                labels[it->second] = pair.label;
                ++num_answered;
              }
            }
            // Every slot answered exactly once — an unanswered slot would
            // otherwise silently keep the kNonMatching default.
            CJ_CHECK(num_answered == batch.size());
            return labels;
          }));

  return ReportStats(labeling, platform, driver);
}

Result<LabelingReport> RunLocalParallelLabeling(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    const CrowdConfig& config, const GroundTruthOracle& truth) {
  LabelingSession session(RoundParallelOptions(config));
  const std::unique_ptr<LabelOracle> oracle = MakeCampaignOracle(config, truth);
  return session.Run(pairs, order, *oracle);
}

Result<StreamingCampaignStats> RunStreamingCampaign(
    RecordSource& source, const RecordScorer* scorer,
    const StreamingCampaignConfig& config) {
  const bool round_by_round = config.label_tasks_per_round > 0;
  if (round_by_round && scorer != nullptr) {
    return Status::InvalidArgument(
        "round-by-round labeling requires the scorer-free path");
  }
  StreamingCampaignStats stats;
  std::unique_ptr<StreamingCandidateFeed> feed;
  if (scorer != nullptr) {
    // The scorer reads record text: the stream is materialized.
    CJ_ASSIGN_OR_RETURN(Dataset dataset, MaterializeDataset(source));
    ThreadPool pool(config.sharding.num_threads);
    CJ_ASSIGN_OR_RETURN(
        stats.candidates,
        internal::GenerateCandidatesOn(
            dataset.records, dataset.bipartite ? &dataset.side_of : nullptr,
            *scorer, config.candidates, config.sharding.num_shards, &pool));
    stats.entity_of = std::move(dataset.entity_of);
  } else {
    CJ_ASSIGN_OR_RETURN(
        feed, StreamingCandidateFeed::Open(
                  source, {config.candidates, config.sharding,
                           round_by_round
                               ? config.label_tasks_per_round
                               : std::numeric_limits<int64_t>::max()}));
    // Moved, not copied: a copy made beside the feed's structures raised
    // `campaign_sf100`'s peak RSS by about 5%.
    stats.entity_of = feed->TakeEntityOf();
    if (!round_by_round) {
      // The candidate set is the feed's one round; the feed is gone before
      // labeling.
      CJ_ASSIGN_OR_RETURN(stats.candidates, feed->NextRound());
      feed.reset();
    }
  }
  stats.num_records = static_cast<int64_t>(stats.entity_of.size());

  const GroundTruthOracle truth(stats.entity_of);
  Rng order_rng(config.crowd.seed);
  if (feed != nullptr) {
    // Round-by-round mode: candidates flow from the sharded join's probe
    // tasks straight into the labeling session; the candidate set is never
    // materialized (peak candidate memory = one round).
    const SessionCheckpointOptions* checkpoint =
        config.checkpoint.path.empty() ? nullptr : &config.checkpoint;
    LabelingSession session(RoundParallelOptions(config.crowd));
    const std::unique_ptr<LabelOracle> oracle =
        MakeCampaignOracle(config.crowd, truth);
    CJ_ASSIGN_OR_RETURN(stats.labeling,
                        session.RunStream(*feed, config.order, *oracle, &truth,
                                          &order_rng, checkpoint));
    stats.num_candidates = feed->num_candidates();
    return stats;
  }

  stats.num_candidates = static_cast<int64_t>(stats.candidates.size());
  CJ_ASSIGN_OR_RETURN(
      const std::vector<int32_t> order,
      MakeLabelingOrder(stats.candidates, config.order, &truth, &order_rng));
  CJ_ASSIGN_OR_RETURN(
      stats.labeling,
      RunLocalParallelLabeling(stats.candidates, order, config.crowd, truth));
  return stats;
}

Result<AmtRunStats> RunNonParallelAmt(const CandidateSet& pairs,
                                      const std::vector<int32_t>& order,
                                      const CrowdConfig& config,
                                      const GroundTruthOracle& truth) {
  // Determine the crowdsourced pair sequence with a synchronous (instant)
  // ground-truth run of the same schedule Parallel(ID) uses, so both
  // publication strategies pay for exactly the same HITs (Section 6.4).
  LabelingSession session = MakeInstantSession();
  std::deque<int32_t> pending;
  std::vector<int32_t> crowdsourced_sequence;
  CJ_ASSIGN_OR_RETURN(const std::vector<int32_t> initial,
                      session.Start(&pairs, order));
  pending.insert(pending.end(), initial.begin(), initial.end());
  while (!pending.empty()) {
    const int32_t pos = pending.front();
    pending.pop_front();
    crowdsourced_sequence.push_back(pos);
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    CJ_ASSIGN_OR_RETURN(
        const std::vector<int32_t> fresh,
        session.OnPairLabeled(pos, truth.Truth(pair.a, pair.b)));
    pending.insert(pending.end(), fresh.begin(), fresh.end());
  }
  CJ_ASSIGN_OR_RETURN(const LabelingReport labeling, session.Finish());

  // Publish those HITs strictly one at a time.
  CrowdPlatform platform(config, &truth);
  HitDriver driver(platform, config);
  std::deque<int32_t> queue(crowdsourced_sequence.begin(),
                            crowdsourced_sequence.end());
  while (!queue.empty()) {
    CJ_RETURN_IF_ERROR(
        driver.Publish(TakeHitTasks(pairs, queue, config.pairs_per_hit)));
    while (driver.HasInFlight()) {
      CJ_ASSIGN_OR_RETURN(const std::vector<CompletedPair> batch,
                          driver.WaitNextBatch());
      (void)batch;
    }
  }

  return ReportStats(labeling, platform, driver);
}

}  // namespace crowdjoin
