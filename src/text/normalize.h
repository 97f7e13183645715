#ifndef CROWDJOIN_TEXT_NORMALIZE_H_
#define CROWDJOIN_TEXT_NORMALIZE_H_

#include <cstddef>
#include <string>
#include <string_view>

namespace crowdjoin {

/// \brief Canonicalizes text for similarity computation: ASCII lower-case,
/// punctuation replaced by spaces, whitespace runs collapsed to single
/// spaces, leading/trailing space removed.
///
/// Digits and letters are kept; everything else becomes a separator, so
/// "iPad-2nd  Gen." and "ipad 2nd gen" normalize identically.
std::string NormalizeText(std::string_view input);

/// `NormalizeText(input)` written to `out`, which must have room for
/// `input.size()` chars (normalizing never lengthens text); returns the
/// normalized length.
size_t NormalizeTextInto(std::string_view input, char* out);

/// True iff `c` survives normalization as a token character.
bool IsTokenChar(char c);

}  // namespace crowdjoin

#endif  // CROWDJOIN_TEXT_NORMALIZE_H_
