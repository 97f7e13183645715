#include "simjoin/similarity_join.h"

#include <string_view>

#include "simjoin/measure_policy.h"
#include "simjoin/postings_index.h"
#include "text/set_similarity.h"

namespace crowdjoin {

using internal::MeasureDocRef;

std::vector<ScoredPair> BruteForceSelfJoin(
    const std::vector<std::vector<int32_t>>& docs, double threshold) {
  std::vector<ScoredPair> out;
  for (size_t i = 0; i < docs.size(); ++i) {
    for (size_t j = i + 1; j < docs.size(); ++j) {
      const double score = JaccardSimilarity(docs[i], docs[j]);
      if (score + 1e-12 >= threshold) {
        out.push_back(
            {static_cast<int32_t>(i), static_cast<int32_t>(j), score});
      }
    }
  }
  return out;
}

std::vector<ScoredPair> BruteForceBipartiteJoin(
    const std::vector<std::vector<int32_t>>& left,
    const std::vector<std::vector<int32_t>>& right, double threshold) {
  std::vector<ScoredPair> out;
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      const double score = JaccardSimilarity(left[i], right[j]);
      if (score + 1e-12 >= threshold) {
        out.push_back(
            {static_cast<int32_t>(i), static_cast<int32_t>(j), score});
      }
    }
  }
  return out;
}

std::vector<ScoredPair> BruteForceMeasureSelfJoin(
    const std::vector<MeasureDoc>& docs, const TokenDictionary& dictionary,
    const SimilarityMeasure& measure, double threshold) {
  const std::vector<int32_t> ranks = dictionary.RarityRanks();
  std::vector<double> weights;
  if (measure.kind() == MeasureKind::kCosineTfIdf) {
    weights = CosineRankWeights(dictionary, ranks);
  }
  std::vector<std::vector<int32_t>> rank_docs(docs.size());
  for (size_t i = 0; i < docs.size(); ++i) {
    RankEncode(docs[i].tokens, ranks, rank_docs[i]);
  }
  const auto ref = [&](size_t i) {
    return MeasureDocRef{rank_docs[i].data(), rank_docs[i].size(),
                         static_cast<size_t>(docs[i].size),
                         std::string_view(docs[i].payload)};
  };
  return internal::DispatchMeasure(measure, &weights, [&](auto policy) {
    std::vector<ScoredPair> out;
    for (size_t i = 0; i < docs.size(); ++i) {
      if (docs[i].tokens.empty()) continue;  // empty-doc contract
      for (size_t j = i + 1; j < docs.size(); ++j) {
        if (docs[j].tokens.empty()) continue;
        const double score = policy.Exact(ref(i), ref(j));
        if (score + 1e-12 >= threshold) {
          out.push_back(
              {static_cast<int32_t>(i), static_cast<int32_t>(j), score});
        }
      }
    }
    return out;
  });
}

std::vector<ScoredPair> BruteForceMeasureBipartiteJoin(
    const std::vector<MeasureDoc>& left, const std::vector<MeasureDoc>& right,
    const TokenDictionary& dictionary, const SimilarityMeasure& measure,
    double threshold) {
  const std::vector<int32_t> ranks = dictionary.RarityRanks();
  std::vector<double> weights;
  if (measure.kind() == MeasureKind::kCosineTfIdf) {
    weights = CosineRankWeights(dictionary, ranks);
  }
  std::vector<std::vector<int32_t>> left_ranks(left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    RankEncode(left[i].tokens, ranks, left_ranks[i]);
  }
  std::vector<std::vector<int32_t>> right_ranks(right.size());
  for (size_t j = 0; j < right.size(); ++j) {
    RankEncode(right[j].tokens, ranks, right_ranks[j]);
  }
  return internal::DispatchMeasure(measure, &weights, [&](auto policy) {
    std::vector<ScoredPair> out;
    for (size_t i = 0; i < left.size(); ++i) {
      if (left[i].tokens.empty()) continue;  // empty-doc contract
      const MeasureDocRef a{left_ranks[i].data(), left_ranks[i].size(),
                            static_cast<size_t>(left[i].size),
                            std::string_view(left[i].payload)};
      for (size_t j = 0; j < right.size(); ++j) {
        if (right[j].tokens.empty()) continue;
        const MeasureDocRef b{right_ranks[j].data(), right_ranks[j].size(),
                              static_cast<size_t>(right[j].size),
                              std::string_view(right[j].payload)};
        const double score = policy.Exact(a, b);
        if (score + 1e-12 >= threshold) {
          out.push_back(
              {static_cast<int32_t>(i), static_cast<int32_t>(j), score});
        }
      }
    }
    return out;
  });
}

}  // namespace crowdjoin
