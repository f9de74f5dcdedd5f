#include "util/tokens.h"

#include <charconv>
#include <string>

namespace scaddar {

std::vector<std::string_view> SplitTokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    const size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') {
      ++pos;
    }
    if (pos > start) {
      tokens.push_back(line.substr(start, pos - start));
    }
  }
  return tokens;
}

StatusOr<int64_t> ParseIntToken(std::string_view token,
                                std::string_view format) {
  int64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    std::string message = "malformed integer";
    if (!format.empty()) {
      message += " in ";
      message += format;
    }
    return InvalidArgumentError(message);
  }
  return value;
}

}  // namespace scaddar
