#ifndef CROWDJOIN_SERVE_RESOLUTION_SERVICE_H_
#define CROWDJOIN_SERVE_RESOLUTION_SERVICE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "graph/cluster_graph.h"
#include "graph/label.h"
#include "simjoin/token_dictionary.h"

namespace crowdjoin {

namespace obs {
class Counter;
class Histogram;
class MetricsRegistry;
}  // namespace obs

/// Tuning knobs for the always-on resolution service.
struct ResolutionServiceOptions {
  /// Minimum exact Jaccard similarity for a record to become a candidate.
  double threshold = 0.5;
  /// Maximum candidates returned per ingest or query (similarity
  /// descending, record id ascending on ties).
  int32_t top_k = 10;
  /// How the cluster graph treats contradictory crowd answers.
  ConflictPolicy conflict_policy = ConflictPolicy::kKeepFirst;
  /// Registry the service's `serve.*` metrics (ingest/query latency
  /// histograms, candidate/label counters) register in. nullptr gives the
  /// service a private always-enabled registry, keeping per-instance
  /// counts exact when many services share a process (tests); a harness
  /// that wants one exportable view passes &obs::MetricsRegistry::Global().
  obs::MetricsRegistry* metrics = nullptr;
};

/// One candidate match for an ingested record or an ad-hoc query.
struct ServeCandidate {
  ObjectId id = -1;        ///< the matching corpus record
  double similarity = 0;   ///< exact Jaccard over distinct word tokens
  ObjectId cluster = -1;   ///< canonical cluster id when the result was read
};

/// What `Ingest` hands back: the new record's dense id plus the labeling
/// work it creates.
struct IngestResult {
  ObjectId id = -1;
  /// Top-k similar records; candidates sharing a `cluster` need only one
  /// crowd question between them (transitivity answers the rest).
  std::vector<ServeCandidate> candidates;
};

/// A consistent view of the service's bookkeeping, read at one graph state.
struct ServeStats {
  int64_t num_records = 0;    ///< records the cluster graph spans
  int64_t num_labels = 0;     ///< OnPairLabeled calls accepted so far
  int32_t num_clusters = 0;   ///< clusters (incl. singletons)
  int64_t num_conflicts = 0;  ///< conflicting labels seen so far
};

/// \brief The always-on entity-resolution service: the paper's offline
/// "join then label" pipeline turned into a long-lived process that
/// resolves records as they arrive.
///
/// The service owns two structures:
///  * an incremental self-join index (token dictionary + inverted lists)
///    that answers "which existing records look like this one" by exact
///    Jaccard overlap counting, and
///  * a `ClusterGraph` fed by crowd answers through `OnPairLabeled`, whose
///    transitive relations keep shrinking the number of questions each new
///    record needs.
///
/// ## Threading model
///
/// One writer, many readers. `Ingest` and `OnPairLabeled` must come from a
/// single thread. The read API (`QueryCandidates`, `ResolveCluster`,
/// `DeducePair`, `Stats`) may be called from any number of threads
/// concurrently with the writer. Two reader/writer locks guard the two
/// structures: the index lock and the graph lock. The writer holds the
/// graph lock exclusively only while it grows the graph or applies one
/// label; readers share-lock it and use the graph's const,
/// compression-free reads. Every write is visible to readers once the
/// writer's call returns. The locks are never held together, so a label
/// never waits on a reader's overlap count. A record the index already
/// serves but the graph does not yet span is reported as its own singleton
/// cluster — exactly what it is until a label touches it.
class ResolutionService {
 public:
  explicit ResolutionService(ResolutionServiceOptions options = {});
  ~ResolutionService();  // out-of-line: obs types are forward-declared here

  // --- Writer API (single thread) ---

  /// Adds a record to the corpus and returns its id plus the top-k similar
  /// existing records, annotated with their current clusters.
  IngestResult Ingest(const std::string& text);

  /// Feeds one crowd answer about records `a` and `b` into the cluster
  /// graph; readers see it once this returns. Returns the graph's verdict
  /// (applied / redundant / conflict).
  AddOutcome OnPairLabeled(ObjectId a, ObjectId b, Label label);

  // --- Reader API (any thread, concurrent with the writer) ---

  /// Top-k records similar to ad-hoc text, without ingesting it. Tokens
  /// the corpus has never seen still count toward the query's set size,
  /// so similarity is exact Jaccard against the full query.
  std::vector<ServeCandidate> QueryCandidates(const std::string& text) const;

  /// The canonical cluster id of record `id`.
  ObjectId ResolveCluster(ObjectId id) const;

  /// What the labeled pairs imply about (`a`, `b`).
  Deduction DeducePair(ObjectId a, ObjectId b) const;

  /// The service's bookkeeping, read at one graph state.
  ServeStats Stats() const;

  /// The registry this service's `serve.*` metrics live in (the one from
  /// the options, or the service-private default).
  obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Match {
    ObjectId id;
    int64_t overlap;
    int64_t union_size;
  };

  // Overlap-counts `ids` (distinct, sorted) against the inverted lists and
  // returns threshold-passing matches, best first. `query_size` is the
  // query's distinct-token count (>= ids.size() when unknown tokens were
  // dropped); `exclude` skips one record id (-1 = none). Callers hold
  // `index_mu_`.
  std::vector<Match> MatchEncoded(const std::vector<int32_t>& ids,
                                  size_t query_size, ObjectId exclude) const;

  ResolutionServiceOptions options_;

  // Self-join index: dictionary + inverted lists + per-record set sizes.
  mutable std::shared_mutex index_mu_;
  TokenDictionary dict_;
  std::vector<std::vector<ObjectId>> postings_;  // token id -> record ids
  std::vector<int32_t> doc_sizes_;               // record id -> |token set|

  // Crowd knowledge. The writer mutates `graph_` and counts labels under an
  // exclusive `graph_mu_`; readers share-lock it and use the const reads.
  mutable std::shared_mutex graph_mu_;
  ClusterGraph graph_;
  int64_t num_labels_ = 0;

  // Telemetry (see ResolutionServiceOptions::metrics). Handles stay valid
  // for the registry's lifetime; readers increment through const pointers.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* ingests_total_;
  obs::Counter* ingest_candidates_total_;
  obs::Counter* labels_total_;
  obs::Counter* queries_total_;
  obs::Histogram* ingest_latency_us_;
  obs::Histogram* query_latency_us_;
  obs::Histogram* candidates_per_query_;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_SERVE_RESOLUTION_SERVICE_H_
