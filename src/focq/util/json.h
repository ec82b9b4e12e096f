// The one JSON reader of focq, and the string escaper every JSON writer
// shares. focq reads two of its own artifacts back as JSON — the query log
// (obs/querylog.h) and Google Benchmark files (obs/benchdiff.h) — and the
// schema tests read the exporters' documents; all three parse through
// ParseJson, so they agree on escapes, numbers and malformed input.
#ifndef FOCQ_UTIL_JSON_H_
#define FOCQ_UTIL_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "focq/util/status.h"

namespace focq {

/// One parsed JSON value. Objects keep their members in document order,
/// duplicate keys included.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;  // std::stod of the token
  std::string str;      // a string's decoded bytes; a number's token text
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// The first member named `key` of an object; null when there is none.
  const JsonValue* Find(std::string_view key) const;
};

/// Parses one JSON document. Numbers follow the JSON grammar (no '+', no
/// leading zeros, digits on both sides of '.'); a \u escape below 0x80
/// decodes to that byte and any other to UTF-8, a surrogate pair to one
/// code point. Malformed input, trailing bytes and arrays or objects nested
/// deeper than 512 levels are kInvalidArgument naming the byte offset.
Result<JsonValue> ParseJson(std::string_view text);

/// Appends `text` to `out` as a quoted, escaped JSON string: '"', '\\',
/// newline, tab and carriage return get their short escapes, other bytes
/// below 0x20 \u00XX, and everything else passes through.
void AppendJsonString(std::string* out, std::string_view text);

}  // namespace focq

#endif  // FOCQ_UTIL_JSON_H_
