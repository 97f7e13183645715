#include "serve/resolution_service.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/tracing.h"
#include "text/tokenize.h"

namespace crowdjoin {

ResolutionService::ResolutionService(ResolutionServiceOptions options)
    : options_(options), graph_(0, options.conflict_policy) {
  CJ_CHECK(options_.threshold > 0.0 && options_.threshold <= 1.0);
  CJ_CHECK(options_.top_k > 0);
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  ingests_total_ = metrics_->GetCounter("serve.ingests_total");
  ingest_candidates_total_ =
      metrics_->GetCounter("serve.ingest_candidates_total");
  labels_total_ = metrics_->GetCounter("serve.labels_total");
  queries_total_ = metrics_->GetCounter("serve.queries_total");
  ingest_latency_us_ = metrics_->GetHistogram("serve.ingest_latency_us");
  query_latency_us_ = metrics_->GetHistogram("serve.query_latency_us");
  candidates_per_query_ = metrics_->GetHistogram("serve.candidates_per_query");
}

ResolutionService::~ResolutionService() = default;

std::vector<ResolutionService::Match> ResolutionService::MatchEncoded(
    const std::vector<int32_t>& ids, size_t query_size,
    ObjectId exclude) const {
  std::unordered_map<ObjectId, int64_t> overlap;
  for (int32_t token : ids) {
    for (ObjectId r : postings_[static_cast<size_t>(token)]) {
      if (r == exclude) continue;
      ++overlap[r];
    }
  }
  std::vector<Match> matches;
  matches.reserve(overlap.size());
  const auto q = static_cast<int64_t>(query_size);
  for (const auto& [r, c] : overlap) {
    const int64_t union_size = q + doc_sizes_[static_cast<size_t>(r)] - c;
    // J(q, r) = c / union >= threshold, evaluated without dividing.
    if (static_cast<double>(c) >= options_.threshold *
                                      static_cast<double>(union_size)) {
      matches.push_back(Match{r, c, union_size});
    }
  }
  // Similarity descending, id ascending — compared as exact fractions
  // (cross-multiplication), so the order never hinges on double rounding.
  std::sort(matches.begin(), matches.end(), [](const Match& x, const Match& y) {
    const int64_t lhs = x.overlap * y.union_size;
    const int64_t rhs = y.overlap * x.union_size;
    if (lhs != rhs) return lhs > rhs;
    return x.id < y.id;
  });
  if (matches.size() > static_cast<size_t>(options_.top_k)) {
    matches.resize(static_cast<size_t>(options_.top_k));
  }
  return matches;
}

IngestResult ResolutionService::Ingest(const std::string& text) {
  obs::Span span("serve.ingest", "serve");
  obs::ScopedLatencyUs latency(ingest_latency_us_);
  ingests_total_->Inc();
  const std::vector<std::string> tokens = WordTokens(text);
  ObjectId id = -1;
  std::vector<Match> matches;
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    const std::vector<int32_t> ids = dict_.AddDocument(tokens);
    id = static_cast<ObjectId>(doc_sizes_.size());
    postings_.resize(dict_.size());
    // Match before this record enters its own postings lists.
    matches = MatchEncoded(ids, ids.size(), /*exclude=*/-1);
    for (int32_t token : ids) {
      postings_[static_cast<size_t>(token)].push_back(id);
    }
    doc_sizes_.push_back(static_cast<int32_t>(ids.size()));
  }
  // The new record joins the graph as a singleton before returning, so
  // readers can resolve it immediately.
  {
    std::unique_lock<std::shared_mutex> lock(graph_mu_);
    graph_.EnsureObjects(id + 1);
  }

  IngestResult result;
  result.id = id;
  ingest_candidates_total_->Inc(static_cast<int64_t>(matches.size()));
  result.candidates.reserve(matches.size());
  for (const Match& m : matches) {
    // Const read without the lock: only this thread mutates the graph.
    result.candidates.push_back(
        ServeCandidate{m.id,
                       static_cast<double>(m.overlap) /
                           static_cast<double>(m.union_size),
                       graph_.CanonicalClusterId(m.id)});
  }
  return result;
}

AddOutcome ResolutionService::OnPairLabeled(ObjectId a, ObjectId b,
                                            Label label) {
  CJ_CHECK(a != b);
  CJ_CHECK(a >= 0 && a < graph_.num_objects());
  CJ_CHECK(b >= 0 && b < graph_.num_objects());
  AddOutcome outcome;
  {
    std::unique_lock<std::shared_mutex> lock(graph_mu_);
    outcome = graph_.Add(a, b, label);
    ++num_labels_;
  }
  labels_total_->Inc();
  return outcome;
}

std::vector<ServeCandidate> ResolutionService::QueryCandidates(
    const std::string& text) const {
  obs::ScopedLatencyUs latency(query_latency_us_);
  queries_total_->Inc();
  const std::vector<std::string> tokens = WordTokens(text);
  std::vector<Match> matches;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    size_t num_distinct = 0;
    const std::vector<int32_t> ids = dict_.Lookup(tokens, &num_distinct);
    matches = MatchEncoded(ids, num_distinct, /*exclude=*/-1);
  }
  std::vector<ServeCandidate> candidates;
  candidates.reserve(matches.size());
  {
    // One lock across the loop, so every annotation reads one graph state.
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    for (const Match& m : matches) {
      // A record the index serves but the graph does not yet span is a
      // singleton: its canonical cluster id is itself.
      const ObjectId cluster = m.id < graph_.num_objects()
                                   ? graph_.CanonicalClusterId(m.id)
                                   : m.id;
      candidates.push_back(ServeCandidate{
          m.id,
          static_cast<double>(m.overlap) / static_cast<double>(m.union_size),
          cluster});
    }
  }
  candidates_per_query_->Observe(static_cast<int64_t>(candidates.size()));
  return candidates;
}

ObjectId ResolutionService::ResolveCluster(ObjectId id) const {
  CJ_CHECK(id >= 0);
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  if (id >= graph_.num_objects()) return id;  // not yet spanned: singleton
  return graph_.CanonicalClusterId(id);
}

Deduction ResolutionService::DeducePair(ObjectId a, ObjectId b) const {
  CJ_CHECK(a >= 0 && b >= 0 && a != b);
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  if (a >= graph_.num_objects() || b >= graph_.num_objects()) {
    return Deduction::kUndeduced;  // no label can touch an unseen record
  }
  return graph_.Deduce(a, b);
}

ServeStats ResolutionService::Stats() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  ServeStats stats;
  stats.num_records = graph_.num_objects();
  stats.num_labels = num_labels_;
  stats.num_clusters = graph_.num_clusters();
  stats.num_conflicts = graph_.num_conflicts();
  return stats;
}

}  // namespace crowdjoin
