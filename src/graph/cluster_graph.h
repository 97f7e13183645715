#ifndef CROWDJOIN_GRAPH_CLUSTER_GRAPH_H_
#define CROWDJOIN_GRAPH_CLUSTER_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
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

/// \brief The ClusterGraph of Section 3.2 (Figures 5–6): union-find clusters
/// of matching objects plus non-matching edges between clusters.
///
/// Supports the two operations the labeling framework needs, both in
/// near-constant amortized time:
///  * `Deduce(a, b)` — decide whether the pair's label follows from the
///    labeled pairs via transitive relations (Algorithm 1, DeduceLabel);
///  * `Add(a, b, label)` — insert a newly labeled pair.
///
/// Non-matching edges are stored per cluster root as hash sets of adjacent
/// roots; when two clusters merge, the smaller edge set is folded into the
/// larger one (small-to-large) and the loser's set is erased, so the total
/// edge-merging work over a run is O(E log E).
///
/// `ClusterGraph` is a plain value type: copies are deep and independent,
/// and `InducedOn` cuts out the part a round of labeling needs.
///
/// ## Threading model
///
/// The graph holds no lock. The non-const reads compress paths and so
/// count as writes. The const overloads (`Deduce`/`ClusterOf`/
/// `ClusterSize`/`CanonicalClusterId`) never write, so any number of
/// threads may call them at once as long as no thread mutates the graph;
/// a caller that mixes a writer with readers guards the graph itself (the
/// resolution service holds one reader/writer lock around it).
class ClusterGraph {
 public:
  /// Creates a graph over objects `[0, num_objects)` with no labeled pairs.
  explicit ClusterGraph(int32_t num_objects = 0,
                        ConflictPolicy policy = ConflictPolicy::kKeepFirst);

  /// Clears all labels and re-creates `num_objects` singleton clusters.
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
  /// of an unchanging graph.
  Deduction Deduce(ObjectId a, ObjectId b) const;

  /// Inserts a labeled pair. Matching labels merge clusters; non-matching
  /// labels add a cluster edge. Returns what happened; conflicts are
  /// counted and resolved per the configured policy.
  AddOutcome Add(ObjectId a, ObjectId b, Label label);

  /// The graph restricted to `objects` (distinct ids `< num_objects()`):
  /// a fresh graph over local ids `[0, objects.size())`, local id i
  /// standing for `objects[i]`, under the same conflict policy. Objects of
  /// one cluster start merged, and two clusters start with a non-matching
  /// edge exactly when this graph has an edge between them, so any
  /// label sequence over the objects deduces, conflicts and resolves on
  /// the result as it would on a copy of this graph. Work is proportional
  /// to the objects plus the edges of their clusters' roots. The result
  /// has no edge log; its merge and conflict counters start at zero. Const
  /// and compression-free, like copying.
  ClusterGraph InducedOn(const std::vector<ObjectId>& objects) const;

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

  /// Compression-free `ClusterOf` for concurrent readers of an unchanging
  /// graph.
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
  void SetEdgeLogEnabled(bool enabled) { edge_log_enabled_ = enabled; }
  bool edge_log_enabled() const { return edge_log_enabled_; }

  /// The recorded `Add` calls, in order.
  const std::vector<LoggedEdge>& edge_log() const { return edge_log_; }

  /// Number of objects in `x`'s cluster.
  int32_t ClusterSize(ObjectId x) { return union_find_.SetSize(x); }

  /// Compression-free `ClusterSize` for concurrent readers of an unchanging
  /// graph.
  int32_t ClusterSize(ObjectId x) const { return union_find_.SetSize(x); }

 private:
  // Shared deduction over resolved roots.
  Deduction DeduceRoots(int32_t ra, int32_t rb) const;

  // Records the edge ra<->rb (both directions). Returns false (and mutates
  // nothing) when the edge already exists.
  bool AddEdge(int32_t ra, int32_t rb);
  // Removes the edge ra<->rb (both directions); it must exist.
  void RemoveEdge(int32_t ra, int32_t rb);

  // Merges the clusters rooted at ra and rb; returns the surviving root.
  int32_t MergeClusters(int32_t ra, int32_t rb);

  UnionFind union_find_;
  ConflictPolicy policy_;
  // Non-matching adjacency keyed by cluster root, both directions stored.
  // A root with no incident edge may be absent.
  std::unordered_map<int32_t, std::unordered_set<int32_t>> edges_;
  int64_t num_edges_ = 0;
  int64_t num_merges_ = 0;
  int64_t conflicts_matching_ = 0;
  int64_t conflicts_non_matching_ = 0;

  // Recorded Add calls (see SetEdgeLogEnabled). Cleared by Reset.
  bool edge_log_enabled_ = false;
  std::vector<LoggedEdge> edge_log_;
};

}  // namespace crowdjoin

#endif  // CROWDJOIN_GRAPH_CLUSTER_GRAPH_H_
