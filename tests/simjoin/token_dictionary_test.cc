#include "simjoin/token_dictionary.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "simjoin/similarity_measure.h"
#include "text/normalize.h"
#include "text/tokenize.h"

namespace crowdjoin {
namespace {

TEST(TokenDictionary, InternsStableIds) {
  TokenDictionary dict;
  const auto doc1 = dict.AddDocument({"a", "b"});
  const auto doc2 = dict.AddDocument({"b", "c"});
  ASSERT_EQ(doc1.size(), 2u);
  ASSERT_EQ(doc2.size(), 2u);
  // "b" must map to the same id in both documents.
  EXPECT_EQ(doc1[1], doc2[0]);
  EXPECT_EQ(dict.size(), 3u);
}

TEST(TokenDictionary, ViewDocumentsMatchStringDocuments) {
  TokenDictionary strings;
  TokenDictionary views;
  const std::vector<std::vector<std::string>> docs = {
      {"b", "a", "b"}, {}, {"c", "a"}, {"d", "d", "b", "e"}};
  for (const auto& doc : docs) {
    const std::vector<std::string_view> doc_views(doc.begin(), doc.end());
    EXPECT_EQ(views.AddDocumentViews(doc_views), strings.AddDocument(doc));
  }
  ASSERT_EQ(views.size(), strings.size());
  for (size_t id = 0; id < strings.size(); ++id) {
    EXPECT_EQ(views.Frequency(static_cast<int32_t>(id)),
              strings.Frequency(static_cast<int32_t>(id)));
  }
  EXPECT_EQ(views.num_documents(), strings.num_documents());
  EXPECT_EQ(views.Lookup({"e", "a", "zz"}), strings.Lookup({"e", "a", "zz"}));
}

// Every measure builds the same document, ids and frequencies from raw
// text as from its normalized form, and as from the string tokens
// (`WordTokens`, `QGrams` of the normalized text) it has always interned.
TEST(SimilarityMeasure, NormalizedDocsMatchRawTextDocs) {
  const std::vector<std::string> texts = {
      "Sony BRAVIA-tv 55\"", "", "  ...  ", "sony tv", "a b a", "x",
      "The Quick brown fox; the LAZY dog."};
  for (const MeasureKind kind :
       {MeasureKind::kJaccard, MeasureKind::kEditDistance,
        MeasureKind::kCosineTfIdf}) {
    const SimilarityMeasure& measure = SimilarityMeasure::Get(kind);
    TokenDictionary raw;
    TokenDictionary normalized;
    TokenDictionary strings;
    for (const std::string& text : texts) {
      const MeasureDoc a = measure.MakeDoc(text, raw);
      const MeasureDoc b =
          measure.MakeNormalizedDoc(NormalizeText(text), normalized);
      EXPECT_EQ(a.tokens,
                strings.AddDocument(
                    kind == MeasureKind::kEditDistance
                        ? QGrams(NormalizeText(text), measure.qgram())
                        : WordTokens(text)))
          << measure.name() << " text=" << text;
      EXPECT_EQ(a.tokens, b.tokens) << measure.name() << " text=" << text;
      EXPECT_EQ(a.size, b.size) << measure.name() << " text=" << text;
      EXPECT_EQ(a.payload, b.payload) << measure.name() << " text=" << text;
    }
    EXPECT_EQ(raw.size(), normalized.size()) << measure.name();
    EXPECT_EQ(raw.RarityRanks(), normalized.RarityRanks()) << measure.name();
    EXPECT_EQ(raw.RarityRanks(), strings.RarityRanks()) << measure.name();
  }
}

TEST(TokenDictionary, DocumentsAreDeduplicatedAndSorted) {
  TokenDictionary dict;
  const auto doc = dict.AddDocument({"z", "a", "z", "a", "m"});
  EXPECT_EQ(doc.size(), 3u);
  EXPECT_TRUE(std::is_sorted(doc.begin(), doc.end()));
}

TEST(TokenDictionary, FrequencyCountsOncePerDocument) {
  TokenDictionary dict;
  const auto doc1 = dict.AddDocument({"x", "x", "x"});
  dict.AddDocument({"x", "y"});
  EXPECT_EQ(dict.Frequency(doc1[0]), 2);  // two documents contain "x"
}

TEST(TokenDictionary, EncodeDoesNotTouchFrequencies) {
  TokenDictionary dict;
  const auto doc = dict.AddDocument({"x"});
  dict.Encode({"x", "new"});
  EXPECT_EQ(dict.Frequency(doc[0]), 1);
  EXPECT_EQ(dict.size(), 2u);  // "new" interned anyway
}

TEST(TokenDictionary, SortByRarityPutsRarestFirst) {
  TokenDictionary dict;
  dict.AddDocument({"common", "rare"});
  dict.AddDocument({"common", "medium"});
  dict.AddDocument({"common", "medium"});
  auto doc = dict.Encode({"common", "medium", "rare"});
  dict.SortByRarity(doc);
  // rare (df=1) < medium (df=2) < common (df=3).
  EXPECT_EQ(dict.Frequency(doc[0]), 1);
  EXPECT_EQ(dict.Frequency(doc[1]), 2);
  EXPECT_EQ(dict.Frequency(doc[2]), 3);
}

TEST(TokenDictionary, EmptyDocument) {
  TokenDictionary dict;
  EXPECT_TRUE(dict.AddDocument({}).empty());
  EXPECT_EQ(dict.size(), 0u);
}

TEST(TokenDictionary, LookupNeverInternsAndDropsUnknownTokens) {
  TokenDictionary dict;
  const auto doc = dict.AddDocument({"a", "b"});
  const TokenDictionary& frozen = dict;
  const auto known = frozen.Lookup({"b", "unknown", "a"});
  EXPECT_EQ(known, doc);  // same sorted-deduped ids, unknown dropped
  EXPECT_EQ(dict.size(), 2u);  // nothing interned
}

TEST(TokenDictionary, LookupCountsDistinctTokensIncludingUnknown) {
  TokenDictionary dict;
  dict.AddDocument({"a", "b"});
  size_t num_distinct = 0;
  const auto known =
      dict.Lookup({"a", "x", "a", "y", "x", "b"}, &num_distinct);
  EXPECT_EQ(known.size(), 2u);
  // Distinct set {a, b, x, y}: duplicates collapse on both sides.
  EXPECT_EQ(num_distinct, 4u);
}

TEST(TokenDictionary, LookupOnEmptyDictionary) {
  TokenDictionary dict;
  size_t num_distinct = 0;
  EXPECT_TRUE(dict.Lookup({"a", "b", "a"}, &num_distinct).empty());
  EXPECT_EQ(num_distinct, 2u);
}

}  // namespace
}  // namespace crowdjoin
