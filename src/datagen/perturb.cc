#include "datagen/perturb.h"

#include <utility>

namespace crowdjoin {

namespace {

constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz";

// std::isspace in the "C" locale, which the library never changes: space,
// \t, \n, \v, \f and \r. Written out so the per-byte test inlines.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// The next whitespace-delimited word of `text` at or after `*pos`, or an
// empty view when none is left; `*pos` moves past the word.
std::string_view NextWord(std::string_view text, size_t* pos) {
  size_t i = *pos;
  while (i < text.size() && IsSpace(text[i])) ++i;
  const size_t start = i;
  while (i < text.size() && !IsSpace(text[i])) ++i;
  *pos = i;
  return text.substr(start, i - start);
}

}  // namespace

void Corruptor::Typo(std::string& word) { TypoAt(word, 0); }

void Corruptor::TypoAt(std::string& buffer, size_t begin) {
  const size_t size = buffer.size() - begin;
  if (size < 2) return;
  const size_t pos = begin + rng_->Index(size);
  switch (rng_->UniformUint64(4)) {
    case 0:  // substitute
      buffer[pos] = kAlphabet[rng_->Index(26)];
      break;
    case 1:  // delete
      buffer.erase(pos, 1);
      break;
    case 2:  // insert
      buffer.insert(pos, 1, kAlphabet[rng_->Index(26)]);
      break;
    case 3:  // transpose with next char
      if (pos + 1 < buffer.size()) std::swap(buffer[pos], buffer[pos + 1]);
      break;
  }
}

void Corruptor::CorruptText(std::string_view text, std::string& out) {
  words_.clear();
  size_t scan = 0;
  for (std::string_view word = NextWord(text, &scan); !word.empty();
       word = NextWord(text, &scan)) {
    words_.push_back(word);
  }
  // Each kept word is copied to the tail of the arena, where the typo and
  // truncation edit it; duplicates and swaps then only move pieces.
  arena_.clear();
  pieces_.clear();
  for (std::string_view word : words_) {
    if (rng_->Bernoulli(config_.drop_word) && words_.size() > 1) continue;
    const size_t begin = arena_.size();
    arena_.append(word);
    if (rng_->Bernoulli(config_.typo_per_word)) TypoAt(arena_, begin);
    const size_t size = arena_.size() - begin;
    if (rng_->Bernoulli(config_.truncate_word) && size > 4) {
      arena_.resize(begin + 3 + rng_->Index(size - 3));
    }
    pieces_.push_back({begin, arena_.size() - begin});
    if (rng_->Bernoulli(config_.duplicate_word)) {
      pieces_.push_back(pieces_.back());
    }
  }
  for (size_t i = 0; i + 1 < pieces_.size(); ++i) {
    if (rng_->Bernoulli(config_.swap_adjacent)) {
      std::swap(pieces_[i], pieces_[i + 1]);
    }
  }
  if (pieces_.empty() && !words_.empty()) {
    pieces_.push_back({arena_.size(), words_[0].size()});
    arena_.append(words_[0]);
  }
  for (size_t i = 0; i < pieces_.size(); ++i) {
    if (i > 0) out += ' ';
    out.append(arena_, pieces_[i].begin, pieces_[i].size);
  }
}

void Corruptor::InitialForm(std::string_view full_name, std::string& out) {
  size_t scan = 0;
  const std::string_view first = NextWord(full_name, &scan);
  std::string_view word = NextWord(full_name, &scan);
  if (word.empty()) {  // fewer than two words
    out += full_name;
    return;
  }
  out += first[0];
  for (; !word.empty(); word = NextWord(full_name, &scan)) {
    out += ' ';
    out += word;
  }
}

double Corruptor::JitterNumber(double value, double jitter) {
  return value * rng_->UniformDouble(1.0 - jitter, 1.0 + jitter);
}

}  // namespace crowdjoin
