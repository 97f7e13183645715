// Property suite for induced graphs: a graph induced on some objects must
// behave exactly like a deep copy of the whole graph with further labels
// over those objects applied — across conflict policies and merge-heavy
// random sequences.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/cluster_graph.h"

namespace crowdjoin {
namespace {

struct Op {
  ObjectId a;
  ObjectId b;
  Label label;
};

// Random labeled pairs over a ground truth with `noise` probability of a
// flipped label — the flips are what exercise the conflict policies.
// `match_bias > 0` redraws non-matching pairs toward matching ones,
// producing merge-heavy sequences.
std::vector<Op> MakeOps(Rng& rng, int32_t num_objects, int32_t num_entities,
                        int32_t num_ops, double noise, int match_bias) {
  std::vector<int32_t> entity(static_cast<size_t>(num_objects));
  for (auto& e : entity) {
    e = static_cast<int32_t>(rng.Index(static_cast<size_t>(num_entities)));
  }
  std::vector<Op> ops;
  ops.reserve(static_cast<size_t>(num_ops));
  while (static_cast<int32_t>(ops.size()) < num_ops) {
    auto a = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    auto b = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    for (int retry = 0; retry < match_bias; ++retry) {
      if (a != b && entity[static_cast<size_t>(a)] ==
                        entity[static_cast<size_t>(b)]) {
        break;
      }
      a = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
      b = static_cast<ObjectId>(rng.Index(static_cast<size_t>(num_objects)));
    }
    if (a == b) continue;
    bool matching =
        entity[static_cast<size_t>(a)] == entity[static_cast<size_t>(b)];
    if (rng.UniformDouble() < noise) matching = !matching;
    ops.push_back(Op{a, b, matching ? Label::kMatching : Label::kNonMatching});
  }
  return ops;
}

class InducedOnPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, ConflictPolicy>> {};

// A random `count` of the objects [0, num_objects), in random order — a
// round's objects in first-appearance order, often several of one cluster.
std::vector<ObjectId> PickObjects(Rng& rng, int32_t num_objects,
                                  int32_t count) {
  std::vector<ObjectId> objects(static_cast<size_t>(num_objects));
  std::iota(objects.begin(), objects.end(), 0);
  for (int32_t i = 0; i < count; ++i) {
    const size_t j = static_cast<size_t>(i) +
                     rng.Index(static_cast<size_t>(num_objects - i));
    std::swap(objects[static_cast<size_t>(i)], objects[j]);
  }
  objects.resize(static_cast<size_t>(count));
  return objects;
}

// Deduce on every pair of local ids agrees with the reference on the
// objects they stand for.
void ExpectInducedDeduce(const ClusterGraph& induced,
                         const ClusterGraph& reference,
                         const std::vector<ObjectId>& objects, uint64_t seed) {
  const auto n = static_cast<ObjectId>(objects.size());
  for (ObjectId a = 0; a < n; ++a) {
    for (ObjectId b = a + 1; b < n; ++b) {
      ASSERT_EQ(induced.Deduce(a, b),
                reference.Deduce(objects[static_cast<size_t>(a)],
                                 objects[static_cast<size_t>(b)]))
          << "seed=" << seed << " pair=(" << a << "," << b << ")";
    }
  }
}

// The graph induced on some objects replays further labels over them
// exactly like a deep copy of the whole graph would: identical Add
// outcomes, identical Deduce on every pair, and conflicts counted from
// zero.
TEST_P(InducedOnPropertyTest, InducedOnMatchesDeepCopyUnderFurtherLabels) {
  const auto [seed, policy] = GetParam();
  Rng rng(seed ^ 0x5eed);
  const int32_t num_objects = 30;
  ClusterGraph live(num_objects, policy);
  const std::vector<Op> prefix =
      MakeOps(rng, num_objects, /*num_entities=*/6, /*num_ops=*/50,
              /*noise=*/0.15, /*match_bias=*/0);
  for (const Op& op : prefix) live.Add(op.a, op.b, op.label);

  const std::vector<ObjectId> objects = PickObjects(rng, num_objects, 18);
  ClusterGraph reference = live;
  ClusterGraph induced = live.InducedOn(objects);
  EXPECT_EQ(induced.num_objects(), 18);
  EXPECT_EQ(induced.num_merges(), 0);
  EXPECT_EQ(induced.num_conflicts(), 0);
  EXPECT_TRUE(induced.edge_log().empty());
  std::set<ObjectId> clusters;
  for (ObjectId x : objects) clusters.insert(reference.CanonicalClusterId(x));
  EXPECT_EQ(induced.num_clusters(), static_cast<int32_t>(clusters.size()));
  ExpectInducedDeduce(induced, reference, objects, seed);

  // The live graph keeps moving — the induced graph must not notice.
  const std::vector<Op> concurrent =
      MakeOps(rng, num_objects, /*num_entities=*/6, /*num_ops=*/40,
              /*noise=*/0.3, /*match_bias=*/0);
  for (const Op& op : concurrent) live.Add(op.a, op.b, op.label);

  const int64_t base_conflicts = reference.num_conflicts();
  const std::vector<Op> suffix =
      MakeOps(rng, static_cast<int32_t>(objects.size()), /*num_entities=*/4,
              /*num_ops=*/80, /*noise=*/0.2, /*match_bias=*/2);
  for (size_t i = 0; i < suffix.size(); ++i) {
    const Op& op = suffix[i];
    ASSERT_EQ(induced.Add(op.a, op.b, op.label),
              reference.Add(objects[static_cast<size_t>(op.a)],
                            objects[static_cast<size_t>(op.b)], op.label))
        << "seed=" << seed << " op=" << i;
    ASSERT_EQ(induced.num_conflicts(),
              reference.num_conflicts() - base_conflicts)
        << "seed=" << seed << " op=" << i;
  }
  ExpectInducedDeduce(induced, reference, objects, seed);
}

// Interleaved Deduce/Add on the induced graph (the round scans' actual
// access pattern) agrees with the deep copy at every step, not just at the
// end.
TEST_P(InducedOnPropertyTest, InducedOnInterleavedDeduceMatches) {
  const auto [seed, policy] = GetParam();
  Rng rng(seed ^ 0xfeed);
  const int32_t num_objects = 24;
  ClusterGraph live(num_objects, policy);
  const std::vector<Op> prefix =
      MakeOps(rng, num_objects, /*num_entities=*/5, /*num_ops=*/40,
              /*noise=*/0.1, /*match_bias=*/1);
  for (const Op& op : prefix) live.Add(op.a, op.b, op.label);

  const std::vector<ObjectId> objects = PickObjects(rng, num_objects, 16);
  ClusterGraph reference = live;
  ClusterGraph induced = live.InducedOn(objects);

  const std::vector<Op> suffix =
      MakeOps(rng, static_cast<int32_t>(objects.size()), /*num_entities=*/5,
              /*num_ops=*/60, /*noise=*/0.25, /*match_bias=*/1);
  for (const Op& op : suffix) {
    const ObjectId a = objects[static_cast<size_t>(op.a)];
    const ObjectId b = objects[static_cast<size_t>(op.b)];
    ASSERT_EQ(induced.Deduce(op.a, op.b), reference.Deduce(a, b))
        << "seed=" << seed << " pair=(" << a << "," << b << ")";
    if (rng.UniformDouble() < 0.6) {
      ASSERT_EQ(induced.Add(op.a, op.b, op.label),
                reference.Add(a, b, op.label))
          << "seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSeeds, InducedOnPropertyTest,
    ::testing::Combine(::testing::Range<uint64_t>(300, 312),
                       ::testing::Values(ConflictPolicy::kKeepFirst,
                                         ConflictPolicy::kTrustNew)));

}  // namespace
}  // namespace crowdjoin
