#ifndef CROWDJOIN_CROWD_CONFIG_H_
#define CROWDJOIN_CROWD_CONFIG_H_

#include <cstdint>

#include "core/retry_policy.h"
#include "crowd/faults.h"

namespace crowdjoin {

/// \brief Parameters of the simulated crowdsourcing platform (AMT stand-in).
///
/// Defaults follow Section 6.4: 20 pairs batched per HIT, 3 assignments per
/// HIT (majority vote), 2 cents per assignment. The latency model has two
/// components per assignment: a pickup delay (a HIT sitting unnoticed on
/// the platform — the dominant cost when few HITs are available) and a
/// service time (the worker actually answering), both drawn per assignment.
struct CrowdConfig {
  int pairs_per_hit = 20;
  int assignments_per_hit = 3;  ///< must be odd for clean majority votes
  double cents_per_assignment = 2.0;

  int num_workers = 15;
  double mean_pickup_hours = 0.30;   ///< exponential mean
  double mean_service_hours = 0.35;  ///< lognormal mean (per assignment)
  double service_sigma = 0.60;       ///< lognormal shape

  /// Per-assignment error rates: P(answer non-matching | truly matching)
  /// and P(answer matching | truly non-matching). Worker heterogeneity adds
  /// N(0, worker_rate_stddev) per worker, clamped to [0, 0.95].
  double false_negative_rate = 0.0;
  double false_positive_rate = 0.0;
  double worker_rate_stddev = 0.0;

  /// Section 6.4's qualification test: workers must answer
  /// `qualification_questions` screening pairs correctly before they may
  /// work on HITs; failing workers are excluded from the pool.
  bool use_qualification_test = false;
  int qualification_questions = 3;

  /// Worker threads the session's round-parallel schedule uses to fan out
  /// the oracle calls of one published batch (see
  /// `LabelingSessionOptions::num_threads`). <= 1 keeps labeling
  /// single-threaded. By contract the LabelingReport is identical for every
  /// value; only wall clock changes.
  int num_threads = 1;

  uint64_t seed = 7;

  /// What goes wrong (worker abandonment, stragglers, spammers, HIT
  /// expiry, flaky publishes). Every field defaults to off; a disabled
  /// plan leaves the simulation byte-identical to the pre-fault code.
  FaultPlan faults;

  /// How the campaign recovers: attempt cap, exponential backoff with
  /// seeded jitter, and the re-ask quorum margin. `retry.seed == 0` means
  /// "derive from the campaign seed" wherever a campaign wires this up.
  RetryPolicy retry;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_CROWD_CONFIG_H_
