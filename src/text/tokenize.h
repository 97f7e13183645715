#ifndef CROWDJOIN_TEXT_TOKENIZE_H_
#define CROWDJOIN_TEXT_TOKENIZE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace crowdjoin {

/// Normalizes `text` and splits it into word tokens.
std::vector<std::string> WordTokens(std::string_view text);

/// Character q-grams of the *normalized* text, with `q-1` boundary padding
/// characters ('$') on each side so short strings still produce grams.
/// Requires q >= 1. "ab" with q=2 yields {"$a", "ab", "b$"}.
std::vector<std::string> QGrams(std::string_view text, int q);

/// `WordTokens` of text that is already normalized (`NormalizeText`'s
/// output), appended to `out` as views into `normalized`.
void AppendNormalizedWords(std::string_view normalized,
                           std::vector<std::string_view>& out);

/// `QGrams` of text that is already normalized, appended to `out` as views
/// into `padded`, which the call overwrites with the padded text: the views
/// hold until `padded` next changes. Requires q >= 1.
void AppendNormalizedQGrams(std::string_view normalized, int q,
                            std::string& padded,
                            std::vector<std::string_view>& out);

/// Sorts and deduplicates tokens in place (set semantics for similarity).
void SortUnique(std::vector<std::string>& tokens);

/// Hashes `std::string` keys and `std::string_view` probes alike, so a
/// token table is searched without building a string per token.
struct TokenHash {
  using is_transparent = void;
  size_t operator()(std::string_view token) const noexcept {
    return std::hash<std::string_view>{}(token);
  }
};

/// Token -> dense id; every vector compared with another must be weighed
/// through the same map.
using TokenIdMap =
    std::unordered_map<std::string, int32_t, TokenHash, std::equal_to<>>;

/// The id of `token` in `ids`; a token not yet there gets the next dense
/// id, `ids.size()`.
inline int32_t InternToken(TokenIdMap& ids, std::string_view token) {
  const auto it = ids.find(token);
  if (it != ids.end()) return it->second;
  const auto id = static_cast<int32_t>(ids.size());
  ids.emplace(std::string(token), id);
  return id;
}

}  // namespace crowdjoin

#endif  // CROWDJOIN_TEXT_TOKENIZE_H_
