#ifndef SCADDAR_UTIL_TOKENS_H_
#define SCADDAR_UTIL_TOKENS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/statusor.h"

namespace scaddar {

/// The non-empty space-separated tokens of one line of a text format
/// (schedules, journals, layouts, snapshots, scenario scripts).
std::vector<std::string_view> SplitTokens(std::string_view line);

/// `token`, whole, as a decimal integer; otherwise InvalidArgument
/// "malformed integer in <format>" ("malformed integer" when `format` is
/// empty).
StatusOr<int64_t> ParseIntToken(std::string_view token,
                                std::string_view format);

}  // namespace scaddar

#endif  // SCADDAR_UTIL_TOKENS_H_
