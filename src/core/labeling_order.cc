#include "core/labeling_order.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>

namespace crowdjoin {

std::string_view OrderKindToString(OrderKind kind) {
  switch (kind) {
    case OrderKind::kOptimal:
      return "Optimal Order";
    case OrderKind::kExpected:
      return "Expected Order";
    case OrderKind::kRandom:
      return "Random Order";
    case OrderKind::kWorst:
      return "Worst Order";
  }
  return "?";
}

namespace {

// Sorts positions [first, last) into `pairs` by decreasing likelihood, then
// increasing position. Each position is packed with its likelihood into one
// 128-bit key that sorts ascending in that order, so the sort compares
// integers instead of chasing indices into `pairs`. The key's high 64 bits
// are the likelihood's bits mapped to an integer ordered like the doubles,
// then inverted; -0.0 is folded into +0.0 first, as the two compare equal.
// (Likelihoods are never NaN.)
void SortByLikelihoodDesc(const CandidateSet& pairs,
                          std::vector<int32_t>::iterator first,
                          std::vector<int32_t>::iterator last) {
  std::vector<__uint128_t> keys;
  keys.reserve(static_cast<size_t>(last - first));
  for (auto it = first; it != last; ++it) {
    const double likelihood = pairs[static_cast<size_t>(*it)].likelihood;
    const auto bits = std::bit_cast<uint64_t>(likelihood + 0.0);
    const uint64_t ascending =
        (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
    keys.push_back((static_cast<__uint128_t>(~ascending) << 32) |
                   static_cast<uint32_t>(*it));
  }
  std::sort(keys.begin(), keys.end());
  for (const __uint128_t key : keys) {
    *first++ = static_cast<int32_t>(static_cast<uint32_t>(key));
  }
}

}  // namespace

Result<std::vector<int32_t>> MakeLabelingOrder(const CandidateSet& pairs,
                                               OrderKind kind,
                                               const GroundTruthOracle* truth,
                                               Rng* rng) {
  std::vector<int32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);

  switch (kind) {
    case OrderKind::kExpected:
      SortByLikelihoodDesc(pairs, order.begin(), order.end());
      return order;
    case OrderKind::kRandom:
      if (rng == nullptr) {
        return Status::InvalidArgument("random order requires an Rng");
      }
      rng->Shuffle(order);
      return order;
    case OrderKind::kOptimal:
    case OrderKind::kWorst: {
      if (truth == nullptr) {
        return Status::InvalidArgument(
            "optimal/worst orders require ground truth");
      }
      const Label first_group =
          kind == OrderKind::kOptimal ? Label::kMatching : Label::kNonMatching;
      // The first group, then the rest, each in the expected order.
      const auto rest = std::partition(
          order.begin(), order.end(), [&](int32_t pos) {
            const CandidatePair& pair = pairs[static_cast<size_t>(pos)];
            return truth->Truth(pair.a, pair.b) == first_group;
          });
      SortByLikelihoodDesc(pairs, order.begin(), rest);
      SortByLikelihoodDesc(pairs, rest, order.end());
      return order;
    }
  }
  return Status::InvalidArgument("unknown order kind");
}

}  // namespace crowdjoin
