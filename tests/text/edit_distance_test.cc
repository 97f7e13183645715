#include "text/edit_distance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace crowdjoin {
namespace {

TEST(LevenshteinDistance, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2u);
  EXPECT_EQ(LevenshteinDistance("", ""), 0u);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3u);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3u);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0u);
}

TEST(LevenshteinDistance, Symmetric) {
  EXPECT_EQ(LevenshteinDistance("sunday", "saturday"),
            LevenshteinDistance("saturday", "sunday"));
}

// The textbook full-matrix dynamic program, the reference for the
// bit-parallel kernel that serves patterns of up to 64 bytes.
size_t ReferenceLevenshtein(std::string_view a, std::string_view b) {
  std::vector<std::vector<size_t>> d(a.size() + 1,
                                     std::vector<size_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
    }
  }
  return d[a.size()][b.size()];
}

// `length` bytes drawn from `alphabet`, or from all 256 byte values when
// it is empty.
std::string RandomBytes(Rng& rng, size_t length, std::string_view alphabet) {
  std::string out(length, '\0');
  for (char& c : out) {
    c = alphabet.empty() ? static_cast<char>(rng.Index(256))
                         : alphabet[rng.Index(alphabet.size())];
  }
  return out;
}

// A few random edits of `base`, so the pair has a small distance.
std::string Mutate(Rng& rng, std::string base, std::string_view alphabet) {
  const size_t edits = rng.Index(6);
  for (size_t e = 0; e < edits; ++e) {
    const std::string c = RandomBytes(rng, 1, alphabet);
    const size_t pos = rng.Index(base.size() + 1);
    switch (rng.Index(3)) {
      case 0:
        base.insert(pos, c);
        break;
      case 1:
        if (pos < base.size()) base.erase(pos, 1);
        break;
      default:
        if (pos < base.size()) base[pos] = c[0];
        break;
    }
  }
  return base;
}

TEST(LevenshteinDistance, MatchesTheDynamicProgramOnRandomStrings) {
  // Small alphabets force long runs of matches; the high bytes catch any
  // signed-char table index.
  const std::vector<std::string_view> alphabets = {
      "ab", "acgt", "abcdefghijklmnopqrstuvwxyz -", "\x80\xc3\xff" "a", ""};
  Rng rng(8080);
  const auto expect_agrees = [](const std::string& a, const std::string& b) {
    ASSERT_EQ(LevenshteinDistance(a, b), ReferenceLevenshtein(a, b))
        << "lengths " << a.size() << ", " << b.size();
    ASSERT_EQ(LevenshteinDistance(b, a), ReferenceLevenshtein(a, b));
  };
  for (int trial = 0; trial < 3000; ++trial) {
    const std::string_view alphabet = alphabets[rng.Index(alphabets.size())];
    const std::string a = RandomBytes(rng, rng.Index(81), alphabet);
    expect_agrees(a, rng.Bernoulli(0.5)
                         ? Mutate(rng, a, alphabet)
                         : RandomBytes(rng, rng.Index(81), alphabet));
  }
  // Either side of the 64-byte word: the shorter string at 63, 64 and 65
  // bytes against every longer length up to 80.
  for (size_t shorter : {63u, 64u, 65u}) {
    for (size_t longer = shorter; longer <= 80; ++longer) {
      for (std::string_view alphabet : alphabets) {
        const std::string a = RandomBytes(rng, shorter, alphabet);
        std::string b = Mutate(rng, a, alphabet);
        b.resize(longer, alphabet.empty() ? '\x90' : alphabet[0]);
        expect_agrees(a, b);
        expect_agrees(a, RandomBytes(rng, longer, alphabet));
      }
    }
  }
}

// The kernel's byte table outlives each call, cleared only at the bytes
// of the pattern just used: alternate patterns that share bytes, use
// disjoint ones and use high bytes, so a bit a call leaves behind shows up
// as a wrong distance in the next.
TEST(LevenshteinDistance, AlternatingPatternsMatchTheDynamicProgram) {
  const std::vector<std::string> patterns = {
      "abcabc", "cab", "xyz", "\x80\xff\xc3\x80", "a\xff" "b", "zzzz",
      "the quick brown fox", "quick", std::string(64, 'q'), "\xff"};
  const std::vector<std::string> texts = {
      "abcabcabc",   "cabbage", "xyzzy",      "\x80\x80\xff\xc3\xc3",
      "a\xff\xff" "b", "zz",      "the quick brown fox jumps",
      std::string(70, 'q') + "abc"};
  for (int round = 0; round < 3; ++round) {
    for (const std::string& pattern : patterns) {
      for (const std::string& text : texts) {
        ASSERT_EQ(LevenshteinDistance(text, pattern),
                  ReferenceLevenshtein(text, pattern))
            << "pattern '" << pattern << "' text '" << text << "'";
      }
    }
  }
}

// A kept pattern measures like the free functions against texts shorter
// and longer than itself, across resets to patterns that share bytes, on
// both sides of the 64-byte word.
TEST(LevenshteinPattern, MatchesTheFreeFunctionsAcrossResets) {
  Rng rng(6464);
  const std::vector<std::string_view> alphabets = {"ab", "acgt",
                                                   "\x80\xc3\xff" "a"};
  std::vector<std::string> strings = {""};
  for (const size_t length : {1u, 7u, 40u, 63u, 64u, 65u, 90u}) {
    for (std::string_view alphabet : alphabets) {
      strings.push_back(RandomBytes(rng, length, alphabet));
      strings.push_back(Mutate(rng, strings.back(), alphabet));
    }
  }
  LevenshteinPattern pattern;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& p : strings) {
      pattern.Reset(p);
      for (const std::string& text : strings) {
        ASSERT_EQ(pattern.Distance(text), ReferenceLevenshtein(p, text))
            << "pattern " << p.size() << " bytes, text " << text.size();
        ASSERT_EQ(pattern.Similarity(text), LevenshteinSimilarity(p, text));
      }
    }
  }
}

TEST(LevenshteinSimilarity, NormalizedToUnitInterval) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(BoundedLevenshtein, ExactWhenWithinBound) {
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 3), 3u);
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 10), 3u);
  EXPECT_EQ(BoundedLevenshtein("flaw", "lawn", 2), 2u);
}

TEST(BoundedLevenshtein, ExceedsBoundReturnsGreaterThanBound) {
  EXPECT_GT(BoundedLevenshtein("kitten", "sitting", 2), 2u);
  EXPECT_GT(BoundedLevenshtein("abcdef", "uvwxyz", 5), 5u);
}

TEST(BoundedLevenshtein, LengthDifferenceRejectsWithoutDp) {
  // |len(a) - len(b)| alone exceeds the budget: the band never opens.
  EXPECT_GT(BoundedLevenshtein("a", "abcdefgh", 3), 3u);
  EXPECT_GT(BoundedLevenshtein("abcdefgh", "", 7), 7u);
}

TEST(BoundedLevenshtein, EmptyAndEqualStrings) {
  EXPECT_EQ(BoundedLevenshtein("", "", 0), 0u);
  EXPECT_EQ(BoundedLevenshtein("same", "same", 0), 0u);
  EXPECT_EQ(BoundedLevenshtein("abc", "", 3), 3u);
  EXPECT_EQ(BoundedLevenshtein("", "abc", 5), 3u);
}

TEST(BoundedLevenshtein, DisjointAlphabets) {
  EXPECT_EQ(BoundedLevenshtein("aaaa", "bbbb", 4), 4u);
  EXPECT_GT(BoundedLevenshtein("aaaa", "bbbb", 3), 3u);
}

TEST(BoundedLevenshtein, ZeroBudgetMeansExactEqualityCheck) {
  EXPECT_EQ(BoundedLevenshtein("abc", "abc", 0), 0u);
  EXPECT_GT(BoundedLevenshtein("abc", "abd", 0), 0u);
}

TEST(BoundedLevenshtein, AgreesWithUnboundedOnRandomStrings) {
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    std::string a, b;
    const size_t la = rng.Index(12);
    const size_t lb = rng.Index(12);
    for (size_t i = 0; i < la; ++i) a += static_cast<char>('a' + rng.Index(4));
    for (size_t i = 0; i < lb; ++i) b += static_cast<char>('a' + rng.Index(4));
    const size_t exact = LevenshteinDistance(a, b);
    for (size_t bound = 0; bound <= 12; ++bound) {
      const size_t banded = BoundedLevenshtein(a, b, bound);
      if (exact <= bound) {
        EXPECT_EQ(banded, exact) << "a=" << a << " b=" << b << " k=" << bound;
      } else {
        EXPECT_GT(banded, bound) << "a=" << a << " b=" << b << " k=" << bound;
      }
    }
  }
}

TEST(JaroSimilarity, ClassicPairs) {
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.944444, 1e-5);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.766667, 1e-5);
  EXPECT_DOUBLE_EQ(JaroSimilarity("same", "same"), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("ab", "xy"), 0.0);
}

TEST(JaroWinklerSimilarity, BoostsCommonPrefix) {
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.961111, 1e-5);
  EXPECT_NEAR(JaroWinklerSimilarity("dwayne", "duane"), 0.84, 0.01);
  // Prefix boost only ever increases similarity.
  EXPECT_GE(JaroWinklerSimilarity("prefix", "preface"),
            JaroSimilarity("prefix", "preface"));
}

TEST(JaroWinklerSimilarity, PrefixCapIsFourChars) {
  const double jaro = JaroSimilarity("abcdefgh", "abcdefzz");
  const double jw = JaroWinklerSimilarity("abcdefgh", "abcdefzz", 0.1);
  EXPECT_NEAR(jw, jaro + 4 * 0.1 * (1.0 - jaro), 1e-12);
}

}  // namespace
}  // namespace crowdjoin
