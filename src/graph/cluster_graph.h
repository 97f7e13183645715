#ifndef CROWDJOIN_GRAPH_CLUSTER_GRAPH_H_
#define CROWDJOIN_GRAPH_CLUSTER_GRAPH_H_

#include <cstdint>
#include <limits>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/label.h"
#include "graph/union_find.h"

namespace crowdjoin {

/// What happened when a labeled pair was inserted into the ClusterGraph.
enum class AddOutcome : uint8_t {
  kApplied = 0,    ///< the label added new information to the graph
  kRedundant = 1,  ///< the label was already deducible (no-op)
  kConflict = 2,   ///< the label contradicts the graph (policy applied)
};

/// How contradictory labels are handled (only relevant when crowd answers
/// can be wrong; the paper's simulations assume correct answers).
enum class ConflictPolicy : uint8_t {
  /// Keep the deduction implied by earlier labels; drop the new label.
  /// This matches the paper's labeling framework, which never crowdsources
  /// a deducible pair and therefore always trusts what is already known.
  kKeepFirst = 0,
  /// For a matching label contradicting a non-matching cluster edge, drop
  /// the edge and merge anyway. (A non-matching label inside one cluster is
  /// still rejected: union-find merges cannot be undone.)
  kTrustNew = 1,
};

/// \brief One recorded `ClusterGraph::Add` call (see `SetEdgeLogEnabled`).
///
/// Replaying a graph's log — every Add in order, conflicts and redundant
/// labels included — onto a fresh graph of the same size reproduces the
/// logical state *and* every counter exactly, which is what campaign
/// checkpoints persist instead of the graph's internal structures.
struct LoggedEdge {
  ObjectId a;
  ObjectId b;
  Label label;
};

class ClusterGraph;

/// \brief An immutable view of a `ClusterGraph` at a published epoch.
///
/// A snapshot is a small value type (a borrowed graph pointer plus the
/// epoch and the counters captured at publish time); acquiring one is O(1)
/// and copying one is trivial. Reads resolve against the graph's link
/// journal and edge-span history, so they see exactly the state that was
/// published at `epoch()` no matter how far the live graph has advanced
/// since — which is what lets reader threads answer `Deduce` queries while
/// a single writer keeps labeling.
///
/// Lifetime: the snapshot borrows the graph; the graph must outlive every
/// snapshot taken from it, and `Reset()` invalidates all outstanding
/// snapshots. Thread safety: snapshot reads take the graph's shared lock
/// and may run concurrently with each other and with one mutating writer.
class ClusterGraphSnapshot {
 public:
  /// An empty snapshot (`valid() == false`); reads CJ_CHECK-fail.
  ClusterGraphSnapshot() = default;

  /// True when the snapshot is bound to a graph.
  bool valid() const { return graph_ != nullptr; }

  /// Algorithm 1 over the published state: matching when `a` and `b` were
  /// in one cluster at the epoch, non-matching when their clusters had an
  /// edge, undeduced otherwise. `a` and `b` must be `< num_objects()`.
  Deduction Deduce(ObjectId a, ObjectId b) const;

  /// The smallest member of `x`'s cluster at the epoch: the id to persist
  /// or compare across epochs (see `ClusterGraph::CanonicalClusterId`).
  ObjectId CanonicalClusterId(ObjectId x) const;

  /// The published epoch this snapshot reads at.
  int64_t epoch() const { return epoch_; }

  /// Number of objects spanned at the epoch.
  int32_t num_objects() const { return num_objects_; }

  /// Cluster count at the epoch.
  int32_t num_clusters() const { return num_clusters_; }

  /// Distinct non-matching cluster edges at the epoch.
  int64_t num_edges() const { return num_edges_; }

  /// Merges performed up to the epoch.
  int64_t num_merges() const { return num_merges_; }

  /// Conflicting labels seen up to the epoch (both kinds).
  int64_t num_conflicts() const {
    return conflicts_matching_ + conflicts_non_matching_;
  }

 private:
  friend class ClusterGraph;
  ClusterGraphSnapshot(const ClusterGraph* graph, int64_t epoch,
                       int32_t num_objects, int32_t num_clusters,
                       int64_t num_edges, int64_t num_merges,
                       int64_t conflicts_matching,
                       int64_t conflicts_non_matching)
      : graph_(graph),
        epoch_(epoch),
        num_objects_(num_objects),
        num_clusters_(num_clusters),
        num_edges_(num_edges),
        num_merges_(num_merges),
        conflicts_matching_(conflicts_matching),
        conflicts_non_matching_(conflicts_non_matching) {}

  const ClusterGraph* graph_ = nullptr;
  int64_t epoch_ = 0;
  int32_t num_objects_ = 0;
  int32_t num_clusters_ = 0;
  int64_t num_edges_ = 0;
  int64_t num_merges_ = 0;
  int64_t conflicts_matching_ = 0;
  int64_t conflicts_non_matching_ = 0;
};

/// \brief The ClusterGraph of Section 3.2 (Figures 5–6): union-find clusters
/// of matching objects plus non-matching edges between clusters.
///
/// Supports the two operations the labeling framework needs, both in
/// near-constant amortized time:
///  * `Deduce(a, b)` — decide whether the pair's label follows from the
///    labeled pairs via transitive relations (Algorithm 1, DeduceLabel);
///  * `Add(a, b, label)` — insert a newly labeled pair.
///
/// Non-matching edges are stored per cluster root as hash maps of adjacent
/// roots; when two clusters merge, the smaller live edge set is folded into
/// the larger one (small-to-large), so the total edge-merging work over a
/// run is O(E log E).
///
/// ## Epoch snapshots
///
/// The graph is partially persistent: alongside the live (path-compressed)
/// structures it keeps a write-once link journal (each root records the
/// root it was merged under, stamped with the epoch of the merge) and
/// birth/death epoch spans on every edge entry (fold re-keys an edge by
/// killing the old span and birthing one under the winner; entries are
/// never erased). `Snapshot()` publishes the pending epoch in O(1) —
/// independent of graph size — and returns a `ClusterGraphSnapshot` whose
/// reads filter the journal and spans by that epoch.
///
/// ## Threading model
///
/// Single writer, many snapshot readers. Until the first `Snapshot()` call
/// the graph takes no locks at all (the single-threaded fast path is
/// unchanged). The first `Snapshot()` flips the graph into snapshot mode:
/// from then on mutations (`Add`, `EnsureObjects`, `Reset`) take the
/// internal lock exclusively and snapshot reads take it shared. Live reads
/// stay lock-free: the non-const overloads compress paths and are
/// writer-thread-only; the const overloads (`Deduce`/`ClusterOf`/
/// `ClusterSize`/`CanonicalClusterId`) never write and are additionally
/// safe from any thread on a *frozen* graph (no concurrent mutator) — the
/// compression-free read path that makes "read" actually mean read.
class ClusterGraph {
 public:
  /// Creates a graph over objects `[0, num_objects)` with no labeled pairs.
  explicit ClusterGraph(int32_t num_objects = 0,
                        ConflictPolicy policy = ConflictPolicy::kKeepFirst);

  /// Deep copy of the logical state. The copy starts outside snapshot mode
  /// with a fresh epoch history rooted at the source's published epoch;
  /// snapshots of the source do not transfer. Copying is safe while the
  /// source has concurrent snapshot readers.
  ClusterGraph(const ClusterGraph& other);
  ClusterGraph& operator=(const ClusterGraph& other);
  ClusterGraph(ClusterGraph&& other) noexcept;
  ClusterGraph& operator=(ClusterGraph&& other) noexcept;

  /// Clears all labels and re-creates `num_objects` singleton clusters.
  /// Invalidates every outstanding snapshot (writer-only, like all
  /// mutations; callers must ensure no reader still holds one).
  void Reset(int32_t num_objects);

  /// Grows the object space to `num_objects`, keeping every labeled pair:
  /// new objects arrive as singleton clusters with no edges. No-op when the
  /// graph already spans that many objects (streaming rounds call this as
  /// each round widens the id range).
  void EnsureObjects(int32_t num_objects);

  /// Decides the pair's label from the labeled pairs (Algorithm 1):
  ///  * same cluster                        -> kMatching
  ///  * different clusters w/ an edge       -> kNonMatching
  ///  * different clusters w/o an edge      -> kUndeduced
  Deduction Deduce(ObjectId a, ObjectId b);

  /// Compression-free `Deduce`: never mutates, safe for concurrent readers
  /// of a frozen graph.
  Deduction Deduce(ObjectId a, ObjectId b) const;

  /// Inserts a labeled pair. Matching labels merge clusters; non-matching
  /// labels add a cluster edge. Returns what happened; conflicts are
  /// counted and resolved per the configured policy.
  AddOutcome Add(ObjectId a, ObjectId b, Label label);

  /// The graph restricted to `objects` (distinct ids `< num_objects()`):
  /// a fresh graph over local ids `[0, objects.size())`, local id i
  /// standing for `objects[i]`, under the same conflict policy. Objects of
  /// one cluster start merged, and two clusters start with a non-matching
  /// edge exactly when this graph has a live edge between them, so any
  /// label sequence over the objects deduces, conflicts and resolves on
  /// the result as it would on a copy of this graph. Work is proportional
  /// to the objects plus the edge history of their clusters' roots. The
  /// result has no snapshots and no edge log; its merge and conflict
  /// counters start at zero. Const and compression-free, like copying.
  ClusterGraph InducedOn(const std::vector<ObjectId>& objects) const;

  /// Publishes every mutation applied so far and returns an O(1) snapshot
  /// of the published state. The first call switches the graph into
  /// snapshot mode (mutations start taking the internal lock; see the
  /// class comment). Writer-only.
  ClusterGraphSnapshot Snapshot();

  /// Number of objects the graph was created over.
  int32_t num_objects() const { return union_find_.size(); }

  /// Current number of clusters (including singletons).
  int32_t num_clusters() const { return union_find_.num_sets(); }

  /// Current number of distinct non-matching cluster edges.
  int64_t num_edges() const { return num_edges_; }

  /// Number of conflicting labels seen so far (both kinds).
  int64_t num_conflicts() const {
    return conflicts_matching_ + conflicts_non_matching_;
  }
  /// Conflicts where a matching label hit an existing non-matching edge.
  int64_t conflicts_matching() const { return conflicts_matching_; }
  /// Conflicts where a non-matching label landed inside one cluster.
  int64_t conflicts_non_matching() const { return conflicts_non_matching_; }

  /// Number of cluster merges performed.
  int64_t num_merges() const { return num_merges_; }

  /// The cluster representative of `x`. This is a union-find root: stable
  /// only until the next merge, after which `ClusterOf` may answer a
  /// different id for the same (even untouched) cluster. Never persist or
  /// compare it across merges — use `CanonicalClusterId` for that.
  ObjectId ClusterOf(ObjectId x) { return union_find_.Find(x); }

  /// Compression-free `ClusterOf` for concurrent readers of a frozen graph.
  ObjectId ClusterOf(ObjectId x) const { return union_find_.Find(x); }

  /// The smallest member of `x`'s cluster: a cluster id that is stable
  /// across merges in the only way possible for ids that outlive merges —
  /// two objects have equal canonical ids iff they are in one cluster, and
  /// a cluster's canonical id changes only when it absorbs a cluster with a
  /// smaller canonical id (never because it *won* a merge). Const and
  /// compression-free.
  ObjectId CanonicalClusterId(ObjectId x) const {
    return union_find_.MinMember(x);
  }

  /// Starts (or stops) recording every `Add` call — applied, redundant,
  /// and conflicting alike — into the edge log. Off by default; the log is
  /// the durable form of the graph for checkpointing (see `LoggedEdge`).
  /// Writer-only, like all mutations.
  void SetEdgeLogEnabled(bool enabled) {
    auto lock = MutationLock();
    edge_log_enabled_ = enabled;
  }
  bool edge_log_enabled() const { return edge_log_enabled_; }

  /// The recorded `Add` calls, in order. Writer-thread view.
  const std::vector<LoggedEdge>& edge_log() const { return edge_log_; }

  /// Number of objects in `x`'s cluster.
  int32_t ClusterSize(ObjectId x) { return union_find_.SetSize(x); }

  /// Compression-free `ClusterSize` for concurrent readers of a frozen
  /// graph.
  int32_t ClusterSize(ObjectId x) const { return union_find_.SetSize(x); }

 private:
  friend class ClusterGraphSnapshot;

  // Epoch value meaning "root was never linked" / "edge is still live".
  static constexpr int64_t kNoEpoch = std::numeric_limits<int64_t>::max();

  // One edge incident to a root, as an epoch span: visible at epoch E iff
  // birth <= E < death. Entries are never erased; a fold kills the loser's
  // span and births one under the winner.
  struct EdgeSpan {
    int64_t birth;
    int64_t death;  // kNoEpoch while live
  };
  struct RootEdges {
    std::unordered_map<int32_t, EdgeSpan> spans;
    int32_t live_degree = 0;  // number of live spans
  };

  // Exclusive lock for mutations — engaged only in snapshot mode, so the
  // single-threaded paths never pay for a mutex.
  std::unique_lock<std::shared_mutex> MutationLock() {
    return snapshots_enabled_ ? std::unique_lock<std::shared_mutex>(mu_)
                              : std::unique_lock<std::shared_mutex>();
  }

  // Copies the logical state of `other` (no lock handling; callers lock).
  void CopyStateFrom(const ClusterGraph& other);

  // Shared deduction over resolved roots.
  Deduction DeduceRoots(int32_t ra, int32_t rb) const;

  // Records a live span ra<->rb born at `epoch` (both directions). Returns
  // false (and mutates nothing) when a live span already exists.
  bool AddSpan(int32_t ra, int32_t rb, int64_t epoch);
  // Kills the live span ra<->rb at `epoch` (both directions).
  void KillSpan(int32_t ra, int32_t rb, int64_t epoch);

  // Merges the clusters rooted at ra and rb; returns the surviving root.
  int32_t MergeClusters(int32_t ra, int32_t rb);

  // --- Snapshot read path (callers hold the shared lock) ---
  int32_t RootAtEpoch(int32_t x, int64_t epoch) const;
  int32_t MinMemberAtEpoch(int32_t x, int64_t epoch) const;
  Deduction DeduceAtEpoch(ObjectId a, ObjectId b, int64_t epoch) const;

  UnionFind union_find_;
  ConflictPolicy policy_;
  // Non-matching adjacency with epoch history, keyed by cluster root. Only
  // roots that ever had an incident edge appear. Live-edge queries check
  // `death == kNoEpoch`; snapshot queries filter spans by epoch.
  std::unordered_map<int32_t, RootEdges> edges_;
  int64_t num_edges_ = 0;
  int64_t num_merges_ = 0;
  int64_t conflicts_matching_ = 0;
  int64_t conflicts_non_matching_ = 0;

  // Write-once link journal: when a root loses a merge it records the
  // winner and the epoch, and is never written again (dead roots stay
  // dead). Snapshot finds walk links with epoch <= E.
  std::vector<int32_t> link_parent_;
  std::vector<int64_t> link_epoch_;  // kNoEpoch while still a root
  // Per-root history of canonical-id decreases: (epoch, new min), appended
  // when a merge lowers the winner's smallest member. Binary-searched by
  // snapshot `CanonicalClusterId`.
  std::unordered_map<int32_t, std::vector<std::pair<int64_t, int32_t>>>
      min_history_;

  // Recorded Add calls (see SetEdgeLogEnabled). Cleared by Reset.
  bool edge_log_enabled_ = false;
  std::vector<LoggedEdge> edge_log_;

  int64_t published_epoch_ = 0;
  bool dirty_ = false;  // mutations pending since the last publish
  // Flipped (once) by the first Snapshot(); from then on mutations lock.
  bool snapshots_enabled_ = false;
  mutable std::shared_mutex mu_;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_GRAPH_CLUSTER_GRAPH_H_
