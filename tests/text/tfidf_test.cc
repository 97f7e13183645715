#include "text/tfidf.h"

#include <gtest/gtest.h>

#include <cmath>

namespace crowdjoin {
namespace {

using Doc = std::vector<std::string>;

TEST(TfIdfModel, IdfRanksRareTokensHigher) {
  const TfIdfModel model = TfIdfModel::Fit({
      {"the", "cat"},
      {"the", "dog"},
      {"the", "cat", "dog"},
      {"the", "zebra"},
  });
  EXPECT_GT(model.Idf("zebra"), model.Idf("cat"));
  EXPECT_GT(model.Idf("cat"), model.Idf("the"));
  // Unseen tokens get the maximum idf.
  EXPECT_GT(model.Idf("unseen"), model.Idf("zebra"));
  EXPECT_EQ(model.num_documents(), 4u);
}

TEST(TfIdfModel, CosineIdenticalDocsIsOne) {
  const TfIdfModel model = TfIdfModel::Fit({{"a", "b"}, {"c"}});
  EXPECT_NEAR(model.Cosine({"a", "b"}, {"a", "b"}), 1.0, 1e-12);
}

TEST(TfIdfModel, CosineDisjointDocsIsZero) {
  const TfIdfModel model = TfIdfModel::Fit({{"a"}, {"b"}});
  EXPECT_DOUBLE_EQ(model.Cosine({"a"}, {"b"}), 0.0);
}

TEST(TfIdfModel, CosineEmptyDocs) {
  const TfIdfModel model = TfIdfModel::Fit({{"a"}});
  EXPECT_DOUBLE_EQ(model.Cosine({}, {}), 1.0);
  EXPECT_DOUBLE_EQ(model.Cosine({"a"}, {}), 0.0);
}

TEST(TfIdfModel, RareSharedTokenDominates) {
  // Documents sharing a rare token should be closer than documents sharing
  // only a ubiquitous one.
  std::vector<Doc> corpus;
  for (int i = 0; i < 50; ++i) corpus.push_back({"common", "filler"});
  corpus.push_back({"common", "rareword"});
  corpus.push_back({"common", "rareword"});
  const TfIdfModel model = TfIdfModel::Fit(corpus);
  const double rare_pair =
      model.Cosine({"common", "rareword"}, {"other", "rareword"});
  const double common_pair =
      model.Cosine({"common", "rareword"}, {"common", "other"});
  EXPECT_GT(rare_pair, common_pair);
}

TEST(TfIdfModel, CosineIsNormalizedToOneForProportionalDocs) {
  // Self-similarity is exactly 1 regardless of the idf weights, and
  // scaling every term frequency by the same factor changes nothing —
  // the norms divide the weights back out.
  const TfIdfModel model = TfIdfModel::Fit({{"a", "b"}, {"b", "c"}, {"d"}});
  EXPECT_NEAR(model.Cosine({"a", "b", "d"}, {"a", "b", "d"}), 1.0, 1e-12);
  EXPECT_NEAR(model.Cosine({"a", "b"}, {"a", "a", "b", "b"}), 1.0, 1e-12);
}

TEST(TfIdfModel, ZeroNormGuardReturnsZeroNotNaN) {
  // A model fit on an empty corpus gives every token idf log(1 + 0/1) = 0,
  // so both vectors have zero norm; the guard must return 0, not 0/0.
  const TfIdfModel empty_corpus = TfIdfModel::Fit({});
  const double score = empty_corpus.Cosine({"a"}, {"a"});
  EXPECT_FALSE(std::isnan(score));
  EXPECT_DOUBLE_EQ(score, 0.0);
}

TEST(TfIdfModel, WeighInternsDistinctTokensThroughSharedIds) {
  const TfIdfModel model = TfIdfModel::Fit({{"a", "b"}, {"b", "c"}});
  TokenIdMap ids;
  const TfIdfVector x = model.Weigh({"b", "a", "b"}, ids);
  const TfIdfVector y = model.Weigh({"c", "b"}, ids);
  EXPECT_EQ(ids.size(), 3u);
  ASSERT_EQ(x.ids.size(), 2u);
  EXPECT_LT(x.ids[0], x.ids[1]);
  EXPECT_EQ(x.sum_order.size(), 2u);
  EXPECT_NE(x.sum_order[0], x.sum_order[1]);
  EXPECT_DOUBLE_EQ(x.norm_sq,
                   x.weights[0] * x.weights[0] + x.weights[1] * x.weights[1]);
  EXPECT_TRUE(model.Weigh({}, ids).ids.empty());
  EXPECT_EQ(TfIdfCosine(x, y), model.Cosine({"b", "a", "b"}, {"c", "b"}));
}

TEST(TfIdfModel, DuplicateTokensCountOncePerDocumentForIdf) {
  const TfIdfModel model =
      TfIdfModel::Fit({{"dup", "dup", "dup"}, {"other"}});
  // df("dup") must be 1, same as df("other").
  EXPECT_DOUBLE_EQ(model.Idf("dup"), model.Idf("other"));
}

}  // namespace
}  // namespace crowdjoin
