#include "focq/util/parse_number.h"

#include <charconv>

namespace focq {
namespace {

template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

template <typename T>
bool ParseDigits(std::string_view text, T* out) {
  // from_chars alone would accept a leading '-' for signed targets.
  if (text.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  return ParseWhole(text, out);
}

}  // namespace

bool ParseNumber(std::string_view text, int* out) {
  return ParseDigits(text, out);
}

bool ParseNumber(std::string_view text, std::int64_t* out) {
  return ParseDigits(text, out);
}

bool ParseNumber(std::string_view text, std::uint64_t* out) {
  return ParseDigits(text, out);
}

bool ParseNumber(std::string_view text, double* out) {
  return ParseWhole(text, out);
}

}  // namespace focq
