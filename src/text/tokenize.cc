#include "text/tokenize.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "text/normalize.h"

namespace crowdjoin {

std::vector<std::string> WordTokens(std::string_view text) {
  return SplitWhitespace(NormalizeText(text));
}

std::vector<std::string> QGrams(std::string_view text, int q) {
  CJ_CHECK(q >= 1);
  std::string padded;
  std::vector<std::string_view> views;
  AppendNormalizedQGrams(NormalizeText(text), q, padded, views);
  return std::vector<std::string>(views.begin(), views.end());
}

void AppendNormalizedWords(std::string_view normalized,
                           std::vector<std::string_view>& out) {
  // Normalized text is tokens joined by single spaces.
  while (!normalized.empty()) {
    const size_t space = normalized.find(' ');
    out.push_back(normalized.substr(0, space));
    if (space == std::string_view::npos) break;
    normalized.remove_prefix(space + 1);
  }
}

void AppendNormalizedQGrams(std::string_view normalized, int q,
                            std::string& padded,
                            std::vector<std::string_view>& out) {
  CJ_CHECK(q >= 1);
  if (normalized.empty()) return;
  const auto pad = static_cast<size_t>(q - 1);
  padded.assign(pad, '$');
  padded += normalized;
  padded.append(pad, '$');
  const std::string_view text = padded;
  const size_t count = text.size() - static_cast<size_t>(q) + 1;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(text.substr(i, static_cast<size_t>(q)));
  }
}

void SortUnique(std::vector<std::string>& tokens) {
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
}

}  // namespace crowdjoin
