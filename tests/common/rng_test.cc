#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

namespace crowdjoin {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(123);
  Rng b(123);
  Rng c(124);
  bool any_differs = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.NextUint64();
    EXPECT_EQ(va, b.NextUint64());
    if (va != c.NextUint64()) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Rng, UniformUint64RespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformUint64(bound), bound);
    }
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(8);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, BernoulliEdgeCasesAndMean) {
  Rng rng(10);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
  EXPECT_FALSE(rng.Bernoulli(-0.5));
  EXPECT_TRUE(rng.Bernoulli(1.5));
  int hits = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.Normal(2.0, 3.0);
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kDraws;
  const double variance = sum_sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(std::sqrt(variance), 3.0, 0.1);
}

void ExpectSameState(const Rng::State& got, const Rng::State& want) {
  for (int i = 0; i < 4; ++i) EXPECT_EQ(got.s[i], want.s[i]) << "word " << i;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.spare_normal),
            std::bit_cast<uint64_t>(want.spare_normal));
  EXPECT_EQ(got.has_spare_normal, want.has_spare_normal);
}

// Skipping n normals leaves the exact state n `Normal()` calls leave, from
// a fresh stream and from one holding a spare.
TEST(Rng, SkipNormalsMatchesDrawing) {
  for (const bool with_spare : {false, true}) {
    for (const uint64_t n : {0ull, 1ull, 2ull, 3ull, 4ull, 5ull, 6ull, 7ull,
                             8ull, 9ull, 100000ull}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " with_spare=" << with_spare);
      Rng drawn(77);
      if (with_spare) drawn.Normal();
      Rng skipped = drawn;
      for (uint64_t i = 0; i < n; ++i) drawn.Normal();
      skipped.SkipNormals(n);
      ExpectSameState(skipped.SaveState(), drawn.SaveState());
      EXPECT_EQ(std::bit_cast<uint64_t>(skipped.Normal()),
                std::bit_cast<uint64_t>(drawn.Normal()));
    }
  }
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng(12);
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.Exponential(0.5);
    EXPECT_GT(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(13);
  std::vector<int> items(50);
  for (int i = 0; i < 50; ++i) items[static_cast<size_t>(i)] = i;
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, items);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, ShuffleHandlesTinyInputs) {
  Rng rng(14);
  std::vector<int> empty;
  rng.Shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  rng.Shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, ZipfStaysInSupportAndFavorsSmallValues) {
  Rng rng(15);
  const ZipfSampler sampler(100, 1.2);
  int64_t ones = 0;
  int64_t large = 0;
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = sampler.Sample(rng);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
    if (v == 1) ++ones;
    if (v > 50) ++large;
  }
  EXPECT_GT(ones, large);
}

TEST(Rng, ForkProducesIndependentDeterministicStreams) {
  Rng parent1(21);
  Rng parent2(21);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(child1.NextUint64(), child2.NextUint64());
  }
}

TEST(Rng, IndexCoversRange) {
  Rng rng(22);
  std::vector<bool> seen(5, false);
  for (int i = 0; i < 500; ++i) seen[rng.Index(5)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

}  // namespace
}  // namespace crowdjoin
