#ifndef MUVE_COMMON_STRINGS_H_
#define MUVE_COMMON_STRINGS_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace muve {

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view text);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view text);

/// Splits on runs of ASCII whitespace, dropping empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Concatenates `parts` into one string. Use it instead of a `+` chain
/// that adds a temporary std::string to a literal: GCC 12 at -O3 may
/// report a false -Wrestrict for `"literal" + <temporary std::string>`,
/// depending on how the call is inlined.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True when `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Case-insensitive equality for ASCII strings.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits = 3);

}  // namespace muve

#endif  // MUVE_COMMON_STRINGS_H_
