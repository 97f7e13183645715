#include "text/tokenize.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "text/normalize.h"

namespace crowdjoin {
namespace {

TEST(WordTokens, NormalizesThenSplits) {
  EXPECT_EQ(WordTokens("iPad 2nd-Gen"),
            (std::vector<std::string>{"ipad", "2nd", "gen"}));
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("—!—").empty());
}

TEST(QGrams, PadsBoundaries) {
  EXPECT_EQ(QGrams("ab", 2),
            (std::vector<std::string>{"$a", "ab", "b$"}));
}

TEST(QGrams, UnigramsHaveNoPadding) {
  EXPECT_EQ(QGrams("abc", 1),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(QGrams, NormalizesInput) {
  // "A b" -> "a b": 3-grams over "$$a b$$" (space kept as separator char).
  const auto grams = QGrams("A b", 3);
  EXPECT_EQ(grams.front(), "$$a");
  EXPECT_EQ(grams.back(), "b$$");
}

TEST(QGrams, EmptyInputYieldsNothing) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_TRUE(QGrams("!!!", 3).empty());
}

TEST(QGrams, ShortStringStillProducesGrams) {
  EXPECT_EQ(QGrams("x", 3),
            (std::vector<std::string>{"$$x", "$x$", "x$$"}));
}

// The empty-document contract every similarity measure honors: empty and
// whitespace-only texts produce NO tokens and NO grams, so such documents
// get an empty signature and never pair with anything (not even each
// other) in any join path. Asserted once here; the measure equivalence
// suite exercises the joins' side of the bargain.
TEST(EmptyTextContract, WhitespaceOnlyYieldsNoTokensOrGrams) {
  for (const char* text : {"", " ", "  \t  ", "\n\t \r\n"}) {
    EXPECT_TRUE(WordTokens(text).empty()) << "text=" << text;
    EXPECT_TRUE(QGrams(text, 2).empty()) << "text=" << text;
    EXPECT_TRUE(QGrams(text, 3).empty()) << "text=" << text;
  }
}

// The view forms over normalized text give the string forms' tokens, in
// the same order (interning order decides token ids).
TEST(NormalizedTokenViews, MatchWordTokensAndQGrams) {
  for (const char* text :
       {"", " ", "iPad 2nd-Gen", "  a  b\tc ", "x", "Sony BRAVIA-tv 55\"",
        "r\xc3\xa9sum\xc3\xa9 of O'Neil", "...a...b..."}) {
    const std::string normalized = NormalizeText(text);
    std::vector<std::string_view> words;
    AppendNormalizedWords(normalized, words);
    EXPECT_EQ(std::vector<std::string>(words.begin(), words.end()),
              WordTokens(text))
        << "text=" << text;
    for (int q = 1; q <= 4; ++q) {
      std::string padded;
      std::vector<std::string_view> grams;
      AppendNormalizedQGrams(normalized, q, padded, grams);
      EXPECT_EQ(std::vector<std::string>(grams.begin(), grams.end()),
                QGrams(text, q))
          << "text=" << text << " q=" << q;
    }
  }
}

TEST(InternToken, AssignsFirstAppearanceIdsToViews) {
  TokenIdMap ids;
  const std::string text = "b a b c";
  EXPECT_EQ(InternToken(ids, std::string_view(text).substr(0, 1)), 0);
  EXPECT_EQ(InternToken(ids, std::string_view(text).substr(2, 1)), 1);
  EXPECT_EQ(InternToken(ids, std::string_view(text).substr(4, 1)), 0);
  EXPECT_EQ(InternToken(ids, "c"), 2);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(SortUnique, SortsAndDeduplicates) {
  std::vector<std::string> tokens = {"b", "a", "b", "c", "a"};
  SortUnique(tokens);
  EXPECT_EQ(tokens, (std::vector<std::string>{"a", "b", "c"}));
}

}  // namespace
}  // namespace crowdjoin
