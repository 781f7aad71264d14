// String helpers shared across the library: splitting, joining, trimming,
// case conversion and numeric formatting. All functions are pure and
// allocation-conscious (string_view in, values out).

#ifndef TEGRA_COMMON_STRING_UTIL_H_
#define TEGRA_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace tegra {

/// \brief Splits `s` on any character contained in `delims`.
/// Consecutive delimiters produce no empty pieces; leading/trailing
/// delimiters are ignored.
std::vector<std::string> SplitOnAny(std::string_view s,
                                    std::string_view delims);

/// \brief Splits `s` on the exact separator string `sep`, keeping empty
/// pieces (CSV-style semantics).
std::vector<std::string> SplitExact(std::string_view s, std::string_view sep);

/// \brief Joins `parts[begin..end)` with `sep`. Empty parts are skipped so
/// that null cells do not introduce double separators.
std::string JoinRange(const std::vector<std::string>& parts, size_t begin,
                      size_t end, std::string_view sep = " ");

/// \brief Joins all of `parts` with `sep` (empty parts skipped).
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep = " ");

/// \brief Removes ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// \brief ASCII lower-casing: only 'A'-'Z' change, whatever the locale.
std::string ToLower(std::string_view s);

/// \brief True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// \brief Formats a double with `digits` decimal places (fixed notation).
std::string FormatDouble(double v, int digits = 2);

/// \brief Pads or truncates `s` to exactly `width` characters (left aligned).
std::string PadRight(std::string s, size_t width);

/// \brief Appends `s` to `out` escaped for a JSON string literal (no quotes
/// added). `"` and `\` are backslash-escaped, control characters take the
/// short forms \b \f \n \r \t where RFC 8259 has one and \u00XX
/// otherwise; every other byte, UTF-8 included, is copied as is.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// \brief Returns `s` as a quoted JSON string literal.
std::string JsonQuote(std::string_view s);

}  // namespace tegra

#endif  // TEGRA_COMMON_STRING_UTIL_H_
