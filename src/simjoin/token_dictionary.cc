#include "simjoin/token_dictionary.h"

#include <algorithm>

#include "text/tokenize.h"

namespace crowdjoin {

int32_t TokenDictionary::Intern(std::string_view token) {
  const int32_t id = InternToken(ids_, token);
  if (static_cast<size_t>(id) == frequency_.size()) frequency_.push_back(0);
  return id;
}

template <typename Tokens>
std::vector<int32_t> TokenDictionary::EncodeTokens(const Tokens& tokens) {
  std::vector<int32_t> doc;
  doc.reserve(tokens.size());
  for (const auto& token : tokens) doc.push_back(Intern(token));
  std::sort(doc.begin(), doc.end());
  doc.erase(std::unique(doc.begin(), doc.end()), doc.end());
  return doc;
}

std::vector<int32_t> TokenDictionary::CountDocument(std::vector<int32_t> doc) {
  for (int32_t id : doc) ++frequency_[static_cast<size_t>(id)];
  ++num_documents_;
  return doc;
}

std::vector<int32_t> TokenDictionary::AddDocument(
    const std::vector<std::string>& tokens) {
  return CountDocument(EncodeTokens(tokens));
}

std::vector<int32_t> TokenDictionary::AddDocumentViews(
    std::span<const std::string_view> tokens) {
  return CountDocument(EncodeTokens(tokens));
}

std::vector<int32_t> TokenDictionary::Encode(
    const std::vector<std::string>& tokens) {
  return EncodeTokens(tokens);
}

std::vector<int32_t> TokenDictionary::Lookup(
    const std::vector<std::string>& tokens, size_t* num_distinct) const {
  std::vector<int32_t> doc;
  doc.reserve(tokens.size());
  // Count unknown tokens by distinct *string*, not per occurrence: sort
  // the misses and unique them alongside the known-id dedup below.
  std::vector<const std::string*> unknown;
  for (const auto& token : tokens) {
    auto it = ids_.find(token);
    if (it == ids_.end()) {
      unknown.push_back(&token);
    } else {
      doc.push_back(it->second);
    }
  }
  std::sort(doc.begin(), doc.end());
  doc.erase(std::unique(doc.begin(), doc.end()), doc.end());
  if (num_distinct != nullptr) {
    std::sort(unknown.begin(), unknown.end(),
              [](const std::string* x, const std::string* y) { return *x < *y; });
    unknown.erase(std::unique(unknown.begin(), unknown.end(),
                              [](const std::string* x, const std::string* y) {
                                return *x == *y;
                              }),
                  unknown.end());
    *num_distinct = doc.size() + unknown.size();
  }
  return doc;
}

void TokenDictionary::Reserve(size_t expected_tokens) {
  ids_.reserve(expected_tokens);
  frequency_.reserve(expected_tokens);
}

void TokenDictionary::SortByRarity(std::vector<int32_t>& doc) const {
  SortByRarity(doc.data(), doc.data() + doc.size());
}

void TokenDictionary::SortByRarity(int32_t* first, int32_t* last) const {
  std::sort(first, last, [this](int32_t x, int32_t y) {
    const int64_t fx = frequency_[static_cast<size_t>(x)];
    const int64_t fy = frequency_[static_cast<size_t>(y)];
    if (fx != fy) return fx < fy;
    return x < y;
  });
}

std::vector<int32_t> TokenDictionary::RarityRanks() const {
  const size_t n = frequency_.size();
  std::vector<int32_t> by_rarity(n);
  for (size_t i = 0; i < n; ++i) by_rarity[i] = static_cast<int32_t>(i);
  SortByRarity(by_rarity.data(), by_rarity.data() + n);
  std::vector<int32_t> ranks(n);
  for (size_t r = 0; r < n; ++r) {
    ranks[static_cast<size_t>(by_rarity[r])] = static_cast<int32_t>(r);
  }
  return ranks;
}

}  // namespace crowdjoin
