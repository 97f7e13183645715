#include "crowd/availability_sim.h"

#include <optional>
#include <utility>

#include "common/macros.h"
#include "core/labeling_session.h"

namespace crowdjoin {

namespace {

// Picks and removes the next pair a worker completes from `available`.
int32_t TakeNext(std::vector<int32_t>& available, const CandidateSet& pairs,
                 CompletionOrder completion_order, Rng& rng) {
  CJ_CHECK(!available.empty());
  size_t chosen = 0;
  if (completion_order == CompletionOrder::kRandom) {
    chosen = rng.Index(available.size());
  } else {
    // Non-matching first: lowest likelihood is labeled next.
    for (size_t i = 1; i < available.size(); ++i) {
      const double li =
          pairs[static_cast<size_t>(available[i])].likelihood;
      const double lc =
          pairs[static_cast<size_t>(available[chosen])].likelihood;
      if (li < lc) chosen = i;
    }
  }
  const int32_t pos = available[chosen];
  available[chosen] = available.back();
  available.pop_back();
  return pos;
}

}  // namespace

Result<std::vector<AvailabilityPoint>> SimulateAvailability(
    const CandidateSet& pairs, const std::vector<int32_t>& order,
    LabelOracle& oracle, PublicationPolicy publication_policy,
    CompletionOrder completion_order, Rng& rng,
    const FaultInjector* faults, const RetryPolicy* retry) {
  std::vector<AvailabilityPoint> series;
  int64_t num_crowdsourced = 0;
  int64_t num_abandoned = 0;

  // Per-position pickup attempts (1-based), keying the transient fault
  // coins so a re-published pair flips a fresh coin each pickup.
  std::vector<int> attempts(pairs.size(), 0);
  const auto pickup_abandoned = [&](int32_t pos) {
    if (faults == nullptr) return false;
    const int attempt = ++attempts[static_cast<size_t>(pos)];
    if (retry != nullptr && attempt > retry->max_attempts) {
      return false;  // escalation: the capped attempt cannot fault
    }
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    return faults->PairAttemptFails(pair.a, pair.b, attempt);
  };

  // Records the series point after a completion or an abandonment.
  const auto record = [&](const std::vector<int32_t>& available) {
    series.push_back({num_crowdsourced,
                      static_cast<int64_t>(available.size()),
                      num_abandoned});
  };
  // A worker picks up the next pair from `available`. An abandoned pickup
  // re-publishes the pair at once (recording a point) and yields nothing;
  // otherwise the pair leaves `available` with its crowd label.
  const auto pick_up = [&](std::vector<int32_t>& available)
      -> std::optional<std::pair<int32_t, Label>> {
    const int32_t pos = TakeNext(available, pairs, completion_order, rng);
    if (pickup_abandoned(pos)) {
      available.push_back(pos);
      ++num_abandoned;
      record(available);
      return std::nullopt;
    }
    const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
    ++num_crowdsourced;
    return std::pair{pos, oracle.GetLabel(pair.a, pair.b)};
  };

  LabelingSessionOptions session_options;
  session_options.schedule =
      publication_policy == PublicationPolicy::kRoundParallel
          ? SchedulePolicy::kRoundParallel
          : SchedulePolicy::kInstantDecision;
  LabelingSession session(session_options);
  if (publication_policy == PublicationPolicy::kRoundParallel) {
    // Algorithm 2 on the session's round engine: workers drain each
    // published round completely before the next round is planned.
    std::vector<Label> answers(pairs.size());
    const auto drain_round = [&](const std::vector<int32_t>& batch)
        -> Result<std::vector<Label>> {
      std::vector<int32_t> available = batch;
      while (!available.empty()) {
        if (const auto done = pick_up(available)) {
          answers[static_cast<size_t>(done->first)] = done->second;
          record(available);
        }
      }
      std::vector<Label> labels;
      labels.reserve(batch.size());
      for (int32_t pos : batch) {
        labels.push_back(answers[static_cast<size_t>(pos)]);
      }
      return labels;
    };
    CJ_RETURN_IF_ERROR(
        session.RunWithBatchSource(pairs, order, drain_round).status());
    return series;
  }

  // Instant decision: the session re-plans after every completion.
  CJ_ASSIGN_OR_RETURN(std::vector<int32_t> available,
                      session.Start(&pairs, order));
  while (!available.empty()) {
    const auto done = pick_up(available);
    if (!done) continue;
    CJ_ASSIGN_OR_RETURN(const std::vector<int32_t> fresh,
                        session.OnPairLabeled(done->first, done->second));
    available.insert(available.end(), fresh.begin(), fresh.end());
    record(available);
  }
  return series;
}

}  // namespace crowdjoin
