#include "graph/cluster_graph.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/macros.h"

namespace crowdjoin {

// ---------------------------------------------------------------------------
// Construction / copying
// ---------------------------------------------------------------------------

ClusterGraph::ClusterGraph(int32_t num_objects, ConflictPolicy policy)
    : policy_(policy) {
  Reset(num_objects);
}

void ClusterGraph::CopyStateFrom(const ClusterGraph& other) {
  union_find_ = other.union_find_;
  policy_ = other.policy_;
  edges_ = other.edges_;
  num_edges_ = other.num_edges_;
  num_merges_ = other.num_merges_;
  conflicts_matching_ = other.conflicts_matching_;
  conflicts_non_matching_ = other.conflicts_non_matching_;
  link_parent_ = other.link_parent_;
  link_epoch_ = other.link_epoch_;
  min_history_ = other.min_history_;
  edge_log_enabled_ = other.edge_log_enabled_;
  edge_log_ = other.edge_log_;
  published_epoch_ = other.published_epoch_;
  dirty_ = other.dirty_;
}

ClusterGraph::ClusterGraph(const ClusterGraph& other) : policy_(other.policy_) {
  std::shared_lock<std::shared_mutex> lock(other.mu_);
  CopyStateFrom(other);
}

ClusterGraph& ClusterGraph::operator=(const ClusterGraph& other) {
  if (this == &other) return *this;
  std::shared_lock<std::shared_mutex> other_lock(other.mu_);
  auto lock = MutationLock();
  CopyStateFrom(other);
  return *this;
}

ClusterGraph::ClusterGraph(ClusterGraph&& other) noexcept
    : union_find_(std::move(other.union_find_)),
      policy_(other.policy_),
      edges_(std::move(other.edges_)),
      num_edges_(other.num_edges_),
      num_merges_(other.num_merges_),
      conflicts_matching_(other.conflicts_matching_),
      conflicts_non_matching_(other.conflicts_non_matching_),
      link_parent_(std::move(other.link_parent_)),
      link_epoch_(std::move(other.link_epoch_)),
      min_history_(std::move(other.min_history_)),
      edge_log_enabled_(other.edge_log_enabled_),
      edge_log_(std::move(other.edge_log_)),
      published_epoch_(other.published_epoch_),
      dirty_(other.dirty_) {}

ClusterGraph& ClusterGraph::operator=(ClusterGraph&& other) noexcept {
  if (this == &other) return *this;
  union_find_ = std::move(other.union_find_);
  policy_ = other.policy_;
  edges_ = std::move(other.edges_);
  num_edges_ = other.num_edges_;
  num_merges_ = other.num_merges_;
  conflicts_matching_ = other.conflicts_matching_;
  conflicts_non_matching_ = other.conflicts_non_matching_;
  link_parent_ = std::move(other.link_parent_);
  link_epoch_ = std::move(other.link_epoch_);
  min_history_ = std::move(other.min_history_);
  edge_log_enabled_ = other.edge_log_enabled_;
  edge_log_ = std::move(other.edge_log_);
  published_epoch_ = other.published_epoch_;
  dirty_ = other.dirty_;
  snapshots_enabled_ = false;
  return *this;
}

void ClusterGraph::Reset(int32_t num_objects) {
  auto lock = MutationLock();
  union_find_.Reset(num_objects);
  edges_.clear();
  num_edges_ = 0;
  num_merges_ = 0;
  conflicts_matching_ = 0;
  conflicts_non_matching_ = 0;
  link_parent_.resize(static_cast<size_t>(num_objects));
  std::iota(link_parent_.begin(), link_parent_.end(), 0);
  link_epoch_.assign(static_cast<size_t>(num_objects), kNoEpoch);
  min_history_.clear();
  edge_log_.clear();
  published_epoch_ = 0;
  dirty_ = false;
}

void ClusterGraph::EnsureObjects(int32_t num_objects) {
  if (num_objects <= union_find_.size()) return;
  auto lock = MutationLock();
  const int32_t old_size = union_find_.size();
  union_find_.Grow(num_objects);
  link_parent_.resize(static_cast<size_t>(num_objects));
  std::iota(link_parent_.begin() + old_size, link_parent_.end(), old_size);
  link_epoch_.resize(static_cast<size_t>(num_objects), kNoEpoch);
  dirty_ = true;
}

// ---------------------------------------------------------------------------
// Live reads
// ---------------------------------------------------------------------------

Deduction ClusterGraph::DeduceRoots(int32_t ra, int32_t rb) const {
  if (ra == rb) return Deduction::kMatching;
  auto it = edges_.find(ra);
  if (it != edges_.end()) {
    auto span = it->second.spans.find(rb);
    if (span != it->second.spans.end() && span->second.death == kNoEpoch) {
      return Deduction::kNonMatching;
    }
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

bool ClusterGraph::AddSpan(int32_t ra, int32_t rb, int64_t epoch) {
  {
    RootEdges& ea = edges_[ra];
    auto [it, inserted] = ea.spans.try_emplace(rb, EdgeSpan{epoch, kNoEpoch});
    if (!inserted) {
      // A dead ra<->rb entry cannot coexist with ra and rb both being live
      // roots (a killed span always loses an endpoint to the merge that
      // follows), so an existing entry here is a live parallel edge.
      CJ_CHECK(it->second.death == kNoEpoch);
      return false;
    }
    ++ea.live_degree;
  }
  // Note: edges_[rb] may rehash the outer map; ea is not used past here.
  RootEdges& eb = edges_[rb];
  auto [it, inserted] = eb.spans.try_emplace(ra, EdgeSpan{epoch, kNoEpoch});
  CJ_CHECK(inserted);
  ++eb.live_degree;
  return true;
}

void ClusterGraph::KillSpan(int32_t ra, int32_t rb, int64_t epoch) {
  auto ita = edges_.find(ra);
  CJ_CHECK(ita != edges_.end());
  auto sa = ita->second.spans.find(rb);
  CJ_CHECK(sa != ita->second.spans.end() && sa->second.death == kNoEpoch);
  sa->second.death = epoch;
  --ita->second.live_degree;
  auto itb = edges_.find(rb);
  CJ_CHECK(itb != edges_.end());
  auto sb = itb->second.spans.find(ra);
  CJ_CHECK(sb != itb->second.spans.end() && sb->second.death == kNoEpoch);
  sb->second.death = epoch;
  --itb->second.live_degree;
}

int32_t ClusterGraph::MergeClusters(int32_t ra, int32_t rb) {
  // Keep the root with the larger live edge set so the smaller set is
  // folded in (small-to-large); ties broken by cluster size via plain
  // Union semantics.
  auto it_a = edges_.find(ra);
  auto it_b = edges_.find(rb);
  const int32_t deg_a = it_a == edges_.end() ? 0 : it_a->second.live_degree;
  const int32_t deg_b = it_b == edges_.end() ? 0 : it_b->second.live_degree;
  int32_t winner = ra;
  int32_t loser = rb;
  if (deg_b > deg_a ||
      (deg_b == deg_a &&
       union_find_.SetSize(rb) > union_find_.SetSize(ra))) {
    winner = rb;
    loser = ra;
  }
  const int64_t epoch = published_epoch_ + 1;
  // Journal the canonical-id decrease and the link before the live
  // structures forget the pre-merge state.
  const int32_t min_w = union_find_.MinMember(winner);
  const int32_t min_l = union_find_.MinMember(loser);
  if (min_l < min_w) min_history_[winner].emplace_back(epoch, min_l);
  union_find_.UnionInto(winner, loser);
  link_parent_[static_cast<size_t>(loser)] = winner;
  link_epoch_[static_cast<size_t>(loser)] = epoch;
  ++num_merges_;

  // Fold: every live loser<->neighbor edge dies at `epoch` and is reborn
  // as winner<->neighbor; the same neighbor may be adjacent to both, and
  // the two parallel edges collapse into one. (The caller guarantees no
  // live edge between winner and loser.) Dead spans stay behind under the
  // loser's key — that is the history snapshots read.
  std::vector<int32_t> live_neighbors;
  if (auto it = edges_.find(loser);
      it != edges_.end() && it->second.live_degree > 0) {
    live_neighbors.reserve(static_cast<size_t>(it->second.live_degree));
    for (const auto& [nbr, span] : it->second.spans) {
      if (span.death == kNoEpoch) live_neighbors.push_back(nbr);
    }
  }
  for (int32_t nbr : live_neighbors) {
    KillSpan(loser, nbr, epoch);
    if (!AddSpan(winner, nbr, epoch)) --num_edges_;  // collapsed parallel
  }
  return winner;
}

AddOutcome ClusterGraph::Add(ObjectId a, ObjectId b, Label label) {
  CJ_CHECK(a != b);
  auto lock = MutationLock();
  // Every call is logged, whatever its outcome: replaying the log must
  // reproduce the conflict/redundancy counters, not just the clusters.
  if (edge_log_enabled_) edge_log_.push_back(LoggedEdge{a, b, label});
  const int64_t epoch = published_epoch_ + 1;
  const int32_t ra = union_find_.Find(a);
  const int32_t rb = union_find_.Find(b);

  if (label == Label::kMatching) {
    if (ra == rb) return AddOutcome::kRedundant;
    if (DeduceRoots(ra, rb) == Deduction::kNonMatching) {
      ++conflicts_matching_;
      dirty_ = true;
      if (policy_ == ConflictPolicy::kKeepFirst) return AddOutcome::kConflict;
      // kTrustNew: drop the contradicting edge, then merge.
      KillSpan(ra, rb, epoch);
      --num_edges_;
      MergeClusters(ra, rb);
      return AddOutcome::kConflict;
    }
    dirty_ = true;
    MergeClusters(ra, rb);
    return AddOutcome::kApplied;
  }

  // Non-matching label.
  if (ra == rb) {
    // Contradiction: the two objects are already deduced matching. A merge
    // cannot be undone, so both policies keep the cluster.
    ++conflicts_non_matching_;
    dirty_ = true;
    return AddOutcome::kConflict;
  }
  if (!AddSpan(ra, rb, epoch)) return AddOutcome::kRedundant;
  ++num_edges_;
  dirty_ = true;
  return AddOutcome::kApplied;
}

// ---------------------------------------------------------------------------
// Induced subgraphs
// ---------------------------------------------------------------------------

ClusterGraph ClusterGraph::InducedOn(
    const std::vector<ObjectId>& objects) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto n = static_cast<int32_t>(objects.size());
  ClusterGraph induced(n, policy_);
  // (root here, local id), sorted: each run of one root is a cluster, and
  // its smallest local id becomes the local root, so the local canonical
  // ids need no history. The merges are journaled at epoch 0, the state a
  // first Snapshot() of the result would publish.
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
      induced.link_parent_[static_cast<size_t>(local)] = local_roots.back();
      induced.link_epoch_[static_cast<size_t>(local)] = 0;
    } else {
      roots.push_back(root);
      local_roots.push_back(local);
    }
  }
  // Every live edge between two of the roots, taken once from its smaller
  // end.
  for (size_t j = 0; j < roots.size(); ++j) {
    const auto it = edges_.find(roots[j]);
    if (it == edges_.end() || it->second.live_degree == 0) continue;
    for (const auto& [nbr, span] : it->second.spans) {
      if (span.death != kNoEpoch || nbr < roots[j]) continue;
      const auto pos = std::lower_bound(roots.begin(), roots.end(), nbr);
      if (pos == roots.end() || *pos != nbr) continue;
      CJ_CHECK(induced.AddSpan(local_roots[j],
                               local_roots[static_cast<size_t>(
                                   pos - roots.begin())],
                               /*epoch=*/0));
      ++induced.num_edges_;
    }
  }
  return induced;
}

// ---------------------------------------------------------------------------
// Epoch snapshots
// ---------------------------------------------------------------------------

ClusterGraphSnapshot ClusterGraph::Snapshot() {
  // Flip into snapshot mode before publishing so every later mutation
  // locks. Writer-only: no reader can hold a snapshot before this returns.
  snapshots_enabled_ = true;
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (dirty_) {
    ++published_epoch_;
    dirty_ = false;
  }
  return ClusterGraphSnapshot(this, published_epoch_, union_find_.size(),
                              union_find_.num_sets(), num_edges_, num_merges_,
                              conflicts_matching_, conflicts_non_matching_);
}

int32_t ClusterGraph::RootAtEpoch(int32_t x, int64_t epoch) const {
  while (link_epoch_[static_cast<size_t>(x)] <= epoch) {
    x = link_parent_[static_cast<size_t>(x)];
  }
  return x;
}

int32_t ClusterGraph::MinMemberAtEpoch(int32_t x, int64_t epoch) const {
  const int32_t root = RootAtEpoch(x, epoch);
  int32_t min = root;
  if (auto it = min_history_.find(root); it != min_history_.end()) {
    // Entries ascend in epoch and descend in min; the last one with
    // epoch <= E is the smallest member visible at E.
    const auto& hist = it->second;
    auto pos = std::upper_bound(
        hist.begin(), hist.end(), epoch,
        [](int64_t e, const std::pair<int64_t, int32_t>& entry) {
          return e < entry.first;
        });
    if (pos != hist.begin()) min = std::prev(pos)->second;
  }
  return min;
}

Deduction ClusterGraph::DeduceAtEpoch(ObjectId a, ObjectId b,
                                      int64_t epoch) const {
  const int32_t ra = RootAtEpoch(a, epoch);
  const int32_t rb = RootAtEpoch(b, epoch);
  if (ra == rb) return Deduction::kMatching;
  auto it = edges_.find(ra);
  if (it != edges_.end()) {
    auto span = it->second.spans.find(rb);
    if (span != it->second.spans.end() && span->second.birth <= epoch &&
        epoch < span->second.death) {
      return Deduction::kNonMatching;
    }
  }
  return Deduction::kUndeduced;
}

Deduction ClusterGraphSnapshot::Deduce(ObjectId a, ObjectId b) const {
  CJ_CHECK(graph_ != nullptr);
  CJ_CHECK(a >= 0 && a < num_objects_ && b >= 0 && b < num_objects_);
  std::shared_lock<std::shared_mutex> lock(graph_->mu_);
  return graph_->DeduceAtEpoch(a, b, epoch_);
}

ObjectId ClusterGraphSnapshot::CanonicalClusterId(ObjectId x) const {
  CJ_CHECK(graph_ != nullptr);
  CJ_CHECK(x >= 0 && x < num_objects_);
  std::shared_lock<std::shared_mutex> lock(graph_->mu_);
  return graph_->MinMemberAtEpoch(x, epoch_);
}

}  // namespace crowdjoin
