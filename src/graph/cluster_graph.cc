#include "graph/cluster_graph.h"

#include <algorithm>
#include <utility>

#include "common/macros.h"

namespace crowdjoin {

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

ClusterGraph::ClusterGraph(int32_t num_objects, ConflictPolicy policy)
    : policy_(policy) {
  Reset(num_objects);
}

void ClusterGraph::Reset(int32_t num_objects) {
  union_find_.Reset(num_objects);
  edges_.clear();
  num_edges_ = 0;
  num_merges_ = 0;
  conflicts_matching_ = 0;
  conflicts_non_matching_ = 0;
  edge_log_.clear();
}

void ClusterGraph::EnsureObjects(int32_t num_objects) {
  if (num_objects <= union_find_.size()) return;
  union_find_.Grow(num_objects);
}

// ---------------------------------------------------------------------------
// Reads
// ---------------------------------------------------------------------------

Deduction ClusterGraph::DeduceRoots(int32_t ra, int32_t rb) const {
  if (ra == rb) return Deduction::kMatching;
  auto it = edges_.find(ra);
  if (it != edges_.end() && it->second.count(rb) != 0) {
    return Deduction::kNonMatching;
  }
  return Deduction::kUndeduced;
}

Deduction ClusterGraph::Deduce(ObjectId a, ObjectId b) {
  return DeduceRoots(union_find_.Find(a), union_find_.Find(b));
}

Deduction ClusterGraph::Deduce(ObjectId a, ObjectId b) const {
  const UnionFind& uf = union_find_;
  return DeduceRoots(uf.Find(a), uf.Find(b));
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

bool ClusterGraph::AddEdge(int32_t ra, int32_t rb) {
  if (!edges_[ra].insert(rb).second) return false;
  // Note: edges_[rb] may rehash the outer map; edges_[ra] is not used past
  // here. Both directions are always stored together.
  CJ_CHECK(edges_[rb].insert(ra).second);
  return true;
}

void ClusterGraph::RemoveEdge(int32_t ra, int32_t rb) {
  auto ita = edges_.find(ra);
  CJ_CHECK(ita != edges_.end() && ita->second.erase(rb) == 1);
  auto itb = edges_.find(rb);
  CJ_CHECK(itb != edges_.end() && itb->second.erase(ra) == 1);
}

int32_t ClusterGraph::MergeClusters(int32_t ra, int32_t rb) {
  // Keep the root with the larger edge set so the smaller set is folded in
  // (small-to-large); ties broken by cluster size via plain Union
  // semantics.
  auto it_a = edges_.find(ra);
  auto it_b = edges_.find(rb);
  const size_t deg_a = it_a == edges_.end() ? 0 : it_a->second.size();
  const size_t deg_b = it_b == edges_.end() ? 0 : it_b->second.size();
  int32_t winner = ra;
  int32_t loser = rb;
  if (deg_b > deg_a ||
      (deg_b == deg_a &&
       union_find_.SetSize(rb) > union_find_.SetSize(ra))) {
    winner = rb;
    loser = ra;
  }
  union_find_.UnionInto(winner, loser);
  ++num_merges_;

  // Fold: every loser<->neighbor edge becomes winner<->neighbor; the same
  // neighbor may be adjacent to both, and the two parallel edges collapse
  // into one. (The caller guarantees no edge between winner and loser.)
  auto it = edges_.find(loser);
  if (it == edges_.end()) return winner;
  const std::unordered_set<int32_t> neighbors = std::move(it->second);
  edges_.erase(it);
  for (int32_t nbr : neighbors) {
    CJ_CHECK(edges_[nbr].erase(loser) == 1);
    if (!AddEdge(winner, nbr)) --num_edges_;  // collapsed parallel
  }
  return winner;
}

AddOutcome ClusterGraph::Add(ObjectId a, ObjectId b, Label label) {
  CJ_CHECK(a != b);
  // Every call is logged, whatever its outcome: replaying the log must
  // reproduce the conflict/redundancy counters, not just the clusters.
  if (edge_log_enabled_) edge_log_.push_back(LoggedEdge{a, b, label});
  const int32_t ra = union_find_.Find(a);
  const int32_t rb = union_find_.Find(b);

  if (label == Label::kMatching) {
    if (ra == rb) return AddOutcome::kRedundant;
    if (DeduceRoots(ra, rb) == Deduction::kNonMatching) {
      ++conflicts_matching_;
      if (policy_ == ConflictPolicy::kKeepFirst) return AddOutcome::kConflict;
      // kTrustNew: drop the contradicting edge, then merge.
      RemoveEdge(ra, rb);
      --num_edges_;
      MergeClusters(ra, rb);
      return AddOutcome::kConflict;
    }
    MergeClusters(ra, rb);
    return AddOutcome::kApplied;
  }

  // Non-matching label.
  if (ra == rb) {
    // Contradiction: the two objects are already deduced matching. A merge
    // cannot be undone, so both policies keep the cluster.
    ++conflicts_non_matching_;
    return AddOutcome::kConflict;
  }
  if (!AddEdge(ra, rb)) return AddOutcome::kRedundant;
  ++num_edges_;
  return AddOutcome::kApplied;
}

// ---------------------------------------------------------------------------
// Induced subgraphs
// ---------------------------------------------------------------------------

ClusterGraph ClusterGraph::InducedOn(
    const std::vector<ObjectId>& objects) const {
  const auto n = static_cast<int32_t>(objects.size());
  ClusterGraph induced(n, policy_);
  // (root here, local id), sorted: each run of one root is a cluster, and
  // its smallest local id becomes the local root.
  std::vector<std::pair<int32_t, int32_t>> by_root(objects.size());
  for (int32_t i = 0; i < n; ++i) {
    by_root[static_cast<size_t>(i)] = {
        union_find_.Find(objects[static_cast<size_t>(i)]), i};
  }
  std::sort(by_root.begin(), by_root.end());
  std::vector<int32_t> roots;        // distinct roots, ascending
  std::vector<int32_t> local_roots;  // the local root of each
  for (size_t j = 0; j < by_root.size(); ++j) {
    const auto [root, local] = by_root[j];
    if (!roots.empty() && roots.back() == root) {
      induced.union_find_.UnionInto(local_roots.back(), local);
    } else {
      roots.push_back(root);
      local_roots.push_back(local);
    }
  }
  // Every edge between two of the roots, taken once from its smaller end.
  for (size_t j = 0; j < roots.size(); ++j) {
    const auto it = edges_.find(roots[j]);
    if (it == edges_.end()) continue;
    for (int32_t nbr : it->second) {
      if (nbr < roots[j]) continue;
      const auto pos = std::lower_bound(roots.begin(), roots.end(), nbr);
      if (pos == roots.end() || *pos != nbr) continue;
      CJ_CHECK(induced.AddEdge(
          local_roots[j],
          local_roots[static_cast<size_t>(pos - roots.begin())]));
      ++induced.num_edges_;
    }
  }
  return induced;
}

}  // namespace crowdjoin
