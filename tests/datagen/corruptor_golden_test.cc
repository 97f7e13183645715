// Frozen Corruptor output at high corruption rates, and the price format
// the product generator relies on.
//
// The streaming checksums (streaming_generator_test.cc) only exercise the
// default, low corruption rates, under which most words pass through
// untouched. These checksums pin every branch of CorruptText (drop,
// typo, truncate, duplicate, swap, the all-dropped fallback), InitialForm
// and Typo, over several seeds, on one Corruptor reused across calls the
// way a block reuses it across records.

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/perturb.h"

namespace crowdjoin {
namespace {

std::string Corrupt(Corruptor& corruptor, std::string_view text) {
  std::string out;
  corruptor.CorruptText(text, out);
  return out;
}

std::string Initials(std::string_view name) {
  std::string out;
  Corruptor::InitialForm(name, out);
  return out;
}

std::string Typoed(Corruptor& corruptor, std::string_view word) {
  std::string out(word);
  corruptor.Typo(out);
  return out;
}

// FNV-1a over (size, bytes) of every output, in call order.
class Checksum {
 public:
  void Mix(const std::string& value) {
    const auto size = static_cast<uint64_t>(value.size());
    MixBytes(&size, sizeof(size));
    MixBytes(value.data(), value.size());
  }
  uint64_t value() const { return hash_; }

 private:
  void MixBytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

const std::vector<std::string_view>& Texts() {
  static const std::vector<std::string_view> texts = {
      "",
      "word",
      "supercalifragilisticexpialidocious",
      "efficient entity resolution with crowdsourcing",
      "  leading and   inner\twhitespace\n",
      "a b c d e f g h",
      "leveraging transitive relations for crowdsourced joins over "
      "heterogeneous records with incremental deduction",
      "kx-3200b",
      "sony kx3200b wireless compact digital camera",
  };
  return texts;
}

const std::vector<std::string_view>& Names() {
  static const std::vector<std::string_view> names = {
      "john smith", "maria garcia lopez", "cher", "", "  spaced   out  name ",
      "a b"};
  return names;
}

const std::vector<std::string_view>& Words() {
  static const std::vector<std::string_view> words = {
      "", "a", "ab", "similarity", "supercalifragilisticexpialidocious"};
  return words;
}

uint64_t GoldenChecksum(const CorruptionConfig& config, uint64_t seed) {
  Rng rng(seed);
  Corruptor corruptor(config, &rng);
  Checksum checksum;
  for (int round = 0; round < 40; ++round) {
    for (std::string_view text : Texts()) {
      checksum.Mix(Corrupt(corruptor, text));
    }
    for (std::string_view name : Names()) checksum.Mix(Initials(name));
    for (std::string_view word : Words()) {
      checksum.Mix(Typoed(corruptor, word));
    }
  }
  return checksum.value();
}

CorruptionConfig HighRates() {
  CorruptionConfig config;
  config.drop_word = 0.5;
  config.typo_per_word = 0.5;
  config.truncate_word = 0.4;
  config.duplicate_word = 0.3;
  config.swap_adjacent = 0.4;
  return config;
}

// Every word is dropped, so every multi-word text falls back to its first
// word.
CorruptionConfig DropEverything() {
  CorruptionConfig config = HighRates();
  config.drop_word = 1.0;
  return config;
}

void ExpectGolden(const CorruptionConfig& config,
                  const std::vector<std::pair<uint64_t, uint64_t>>& golden) {
  for (const auto& [seed, expected] : golden) {
    const uint64_t actual = GoldenChecksum(config, seed);
    EXPECT_EQ(actual, expected)
        << "seed " << seed << " got 0x" << std::hex << actual;
  }
}

TEST(CorruptorGolden, HighRates) {
  ExpectGolden(HighRates(), {{1, 0x9cd0167f2c7ca2ddull},
                             {7, 0xc3a34b2a506edd0full},
                             {42, 0x23c060b91e4a1911ull},
                             {1009, 0xd4247921efdce7b9ull}});
}

TEST(CorruptorGolden, EveryWordDropped) {
  ExpectGolden(DropEverything(), {{1, 0x48aa151179b95e2dull},
                                  {7, 0xa3bc0c593b38e682ull},
                                  {42, 0x469d37329d5822dcull},
                                  {1009, 0x1a674d477e180c07ull}});
}

TEST(CorruptorGolden, DefaultRates) {
  ExpectGolden(CorruptionConfig{}, {{1, 0x7d272b5230996231ull},
                                    {7, 0x5db2f58f296e7bcfull},
                                    {42, 0x3b5d3dc128df3c78ull},
                                    {1009, 0xc899a6d998d42288ull}});
}

// The product generator formats prices with std::to_chars(fixed, 2); the
// frozen product checksums were recorded with printf's "%.2f". The two
// agree across the generated price range [10, 2000) times a jitter of at
// most a few percent, including the exact binary ties at the third
// decimal (10.125 is representable, so the tie is real) and the decimal
// ties that are not exact (10.005).
std::string FixedTwo(double value) {
  char digits[64];
  const std::to_chars_result result = std::to_chars(
      digits, digits + sizeof(digits), value, std::chars_format::fixed, 2);
  return std::string(digits, result.ptr);
}

TEST(PriceFormat, ToCharsMatchesPrintfOverThePriceRange) {
  constexpr double kHigh = 4096.0;
  size_t mismatches = 0;
  const auto check = [&mismatches](double value) {
    const std::string expected = StrFormat("%.2f", value);
    const std::string actual = FixedTwo(value);
    if (actual != expected && ++mismatches <= 10) {
      ADD_FAILURE() << "value " << std::hexfloat << value << ": printf "
                    << expected << ", to_chars " << actual;
    }
  };
  // Every multiple of 1/8: the binary ties at .125/.375/.625/.875 and
  // their neighbours one ulp either side.
  for (double value = 0.0; value < kHigh; value += 0.125) {
    check(value);
    check(std::nextafter(value, 0.0));
    check(std::nextafter(value, kHigh));
  }
  // Every decimal tie n.dd5, none of them exactly representable.
  for (int thousandths = 5; thousandths < kHigh * 1000; thousandths += 10) {
    check(thousandths / 1000.0);
  }
  // Uniform draws the way the generator makes them, plus jitter.
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const double price = 10.0 + rng.UniformDouble() * 1990.0;
    check(price);
    check(price * rng.UniformDouble(0.94, 1.06));
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace crowdjoin
