#include "text/normalize.h"

#include <cctype>

namespace crowdjoin {

bool IsTokenChar(char c) {
  const unsigned char uc = static_cast<unsigned char>(c);
  return std::isalnum(uc) != 0;
}

std::string NormalizeText(std::string_view input) {
  std::string out(input.size(), '\0');
  out.resize(NormalizeTextInto(input, out.data()));
  return out;
}

size_t NormalizeTextInto(std::string_view input, char* out) {
  size_t len = 0;
  bool pending_space = false;
  for (char c : input) {
    if (IsTokenChar(c)) {
      if (pending_space && len > 0) out[len++] = ' ';
      pending_space = false;
      out[len++] =
          static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else {
      pending_space = true;
    }
  }
  return len;
}

}  // namespace crowdjoin
