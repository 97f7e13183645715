#include "text/normalize.h"

#include <gtest/gtest.h>

#include <string>

namespace crowdjoin {
namespace {

TEST(NormalizeText, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(NormalizeText("iPad-2nd  Gen."), "ipad 2nd gen");
  EXPECT_EQ(NormalizeText("Hello, World!"), "hello world");
}

TEST(NormalizeText, CollapsesWhitespaceRuns) {
  EXPECT_EQ(NormalizeText("a   b\t\nc"), "a b c");
}

TEST(NormalizeText, TrimsEnds) {
  EXPECT_EQ(NormalizeText("  x  "), "x");
  EXPECT_EQ(NormalizeText("...x..."), "x");
}

TEST(NormalizeText, EmptyAndPunctuationOnly) {
  EXPECT_EQ(NormalizeText(""), "");
  EXPECT_EQ(NormalizeText("!!! ??? ..."), "");
}

TEST(NormalizeText, KeepsDigits) {
  EXPECT_EQ(NormalizeText("KX-200b ver.2"), "kx 200b ver 2");
}

TEST(NormalizeTextInto, WritesNormalizeTextIntoARoomOfTheInputSize) {
  for (const char* text : {"", "   ", "iPad-2nd  Gen.", "  x  ", "a b",
                           "KX-200b ver.2", "\xc3\xa9t\xc3\xa9 !x!"}) {
    const std::string input = text;
    std::string out(input.size(), '#');
    const size_t len = NormalizeTextInto(input, out.data());
    EXPECT_EQ(out.substr(0, len), NormalizeText(input)) << "text=" << text;
  }
}

TEST(IsTokenChar, AlnumOnly) {
  EXPECT_TRUE(IsTokenChar('a'));
  EXPECT_TRUE(IsTokenChar('Z'));
  EXPECT_TRUE(IsTokenChar('7'));
  EXPECT_FALSE(IsTokenChar(' '));
  EXPECT_FALSE(IsTokenChar('-'));
  EXPECT_FALSE(IsTokenChar('.'));
}

}  // namespace
}  // namespace crowdjoin
