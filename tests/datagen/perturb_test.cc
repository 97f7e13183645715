#include "datagen/perturb.h"

#include <gtest/gtest.h>

#include <cctype>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "text/edit_distance.h"

namespace crowdjoin {
namespace {

std::string Corrupt(Corruptor& corruptor, std::string_view text) {
  std::string out;
  corruptor.CorruptText(text, out);
  return out;
}

std::string Typoed(Corruptor& corruptor, std::string word) {
  corruptor.Typo(word);
  return word;
}

std::string Initials(std::string_view name) {
  std::string out;
  Corruptor::InitialForm(name, out);
  return out;
}

CorruptionConfig ZeroRates() {
  CorruptionConfig config;
  config.typo_per_word = 0.0;
  config.drop_word = 0.0;
  config.duplicate_word = 0.0;
  config.swap_adjacent = 0.0;
  config.truncate_word = 0.0;
  return config;
}

TEST(Corruptor, TypoIsOneEditAway) {
  Rng rng(1);
  Corruptor corruptor({}, &rng);
  for (int i = 0; i < 200; ++i) {
    const std::string corrupted = Typoed(corruptor, "similarity");
    EXPECT_LE(LevenshteinDistance("similarity", corrupted), 2u);
    EXPECT_GE(corrupted.size(), 9u);
    EXPECT_LE(corrupted.size(), 11u);
  }
}

TEST(Corruptor, TypoLeavesShortWordsAlone) {
  Rng rng(2);
  Corruptor corruptor({}, &rng);
  EXPECT_EQ(Typoed(corruptor, "a"), "a");
  EXPECT_EQ(Typoed(corruptor, ""), "");
}

TEST(Corruptor, CorruptTextIsDeterministicPerSeed) {
  CorruptionConfig config;
  config.typo_per_word = 0.5;
  Rng rng1(3);
  Rng rng2(3);
  Corruptor c1(config, &rng1);
  Corruptor c2(config, &rng2);
  const std::string text = "efficient entity resolution with crowdsourcing";
  EXPECT_EQ(Corrupt(c1, text), Corrupt(c2, text));
}

TEST(Corruptor, ZeroRatesLeaveTextUnchanged) {
  const CorruptionConfig config = ZeroRates();
  Rng rng(4);
  Corruptor corruptor(config, &rng);
  const std::string text = "nothing should change here";
  EXPECT_EQ(Corrupt(corruptor, text), text);
}

TEST(Corruptor, CorruptTextNeverEmptiesNonEmptyInput) {
  CorruptionConfig config;
  config.drop_word = 0.95;
  Rng rng(5);
  Corruptor corruptor(config, &rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(Corrupt(corruptor, "word").empty());
    EXPECT_FALSE(Corrupt(corruptor, "two words").empty());
  }
}

TEST(Corruptor, CorruptTextAppendsToTheBuffer) {
  const CorruptionConfig config = ZeroRates();
  Rng rng(8);
  Corruptor corruptor(config, &rng);
  std::string out = "prefix|";
  corruptor.CorruptText("  two \t words ", out);
  EXPECT_EQ(out, "prefix|two words");
  corruptor.CorruptText("", out);
  EXPECT_EQ(out, "prefix|two words");
}

TEST(Corruptor, SplitsWordsOnTheCLocaleWhitespace) {
  const CorruptionConfig config = ZeroRates();
  Rng rng(10);
  Corruptor corruptor(config, &rng);
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const std::string text = std::string("x") + c + "y";
    const bool space = std::isspace(static_cast<unsigned char>(c)) != 0;
    EXPECT_EQ(Corrupt(corruptor, text), space ? "x y" : text) << byte;
  }
}

TEST(Corruptor, TypoEditsInPlace) {
  Rng rng(9);
  Corruptor corruptor({}, &rng);
  std::string word = "similarity";
  for (int i = 0; i < 50; ++i) {
    const std::string before = word;
    corruptor.Typo(word);
    EXPECT_LE(LevenshteinDistance(before, word), 2u);
  }
}

TEST(Corruptor, InitialFormAbbreviatesFirstName) {
  EXPECT_EQ(Initials("john smith"), "j smith");
  EXPECT_EQ(Initials("maria garcia lopez"), "m garcia lopez");
  EXPECT_EQ(Initials("  maria   garcia "), "m garcia");
  EXPECT_EQ(Initials("cher"), "cher");
  EXPECT_EQ(Initials(" cher "), " cher ");
  EXPECT_EQ(Initials(""), "");
  std::string out = "a and ";
  Corruptor::InitialForm("john smith", out);
  EXPECT_EQ(out, "a and j smith");
}

TEST(Corruptor, JitterStaysWithinBounds) {
  Rng rng(7);
  Corruptor corruptor({}, &rng);
  for (int i = 0; i < 500; ++i) {
    const double jittered = corruptor.JitterNumber(100.0, 0.1);
    EXPECT_GE(jittered, 90.0);
    EXPECT_LE(jittered, 110.0);
  }
}

}  // namespace
}  // namespace crowdjoin
