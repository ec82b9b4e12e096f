// Strict numeric parsing for command-line values: the whole text must be the
// number. Every tool flag that takes a number goes through these, so a value
// like "-1", "+3", "0x10", "5xyz" or " 4" is a diagnostic, never a silently
// wrapped seed or a truncated budget.
#ifndef FOCQ_UTIL_PARSE_NUMBER_H_
#define FOCQ_UTIL_PARSE_NUMBER_H_

#include <cstdint>
#include <string_view>

namespace focq {

/// Integers: decimal digits only (no sign, whitespace or base prefix), and
/// the value must fit in the target type. On failure `*out` is untouched.
bool ParseNumber(std::string_view text, int* out);
bool ParseNumber(std::string_view text, std::int64_t* out);
bool ParseNumber(std::string_view text, std::uint64_t* out);

/// Reals: the std::from_chars general format ("0.25", "-1", "1e-3"; no
/// leading '+' or whitespace); a magnitude past double ("1e999") fails.
/// Range checks such as eps in (0, 1) are the caller's.
bool ParseNumber(std::string_view text, double* out);

}  // namespace focq

#endif  // FOCQ_UTIL_PARSE_NUMBER_H_
