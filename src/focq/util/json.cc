#include "focq/util/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <optional>

namespace focq {
namespace {

constexpr int kMaxDepth = 512;

// Recursive descent over one document; the depth cap bounds the recursion.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  Result<JsonValue> Document() {
    JsonValue v;
    FOCQ_RETURN_IF_ERROR(Value(&v, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return v;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  // Skips space, then consumes `c` if it is next.
  bool Consume(char c) {
    SkipSpace();
    if (pos_ == text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Keyword(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status Value(JsonValue* out, int depth) {
    SkipSpace();
    if (pos_ == text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth == kMaxDepth) {
        return Error("nested deeper than " + std::to_string(kMaxDepth));
      }
      return Container(out, depth + 1);
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->str);
    }
    if (Keyword("true") || Keyword("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = c == 't';
      return Status::Ok();
    }
    if (Keyword("null")) return Status::Ok();
    return Number(out);
  }

  // An object's members or an array's elements, from the opening bracket.
  Status Container(JsonValue* out, int depth) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    out->kind = object ? JsonValue::Kind::kObject : JsonValue::Kind::kArray;
    if (Consume(close)) return Status::Ok();
    for (;;) {
      JsonValue* slot = nullptr;
      if (object) {
        std::string key;
        SkipSpace();
        FOCQ_RETURN_IF_ERROR(String(&key));
        if (!Consume(':')) return Error("expected ':'");
        slot = &out->object.emplace_back(std::move(key), JsonValue{}).second;
      } else {
        slot = &out->array.emplace_back();
      }
      FOCQ_RETURN_IF_ERROR(Value(slot, depth));
      if (Consume(',')) continue;
      if (Consume(close)) return Status::Ok();
      return Error(std::string("expected ',' or '") + close + "'");
    }
  }

  Status String(std::string* out) {
    if (pos_ == text_.size() || text_[pos_] != '"') {
      return Error("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ == text_.size()) break;
      switch (const char e = text_[pos_++]) {
        case '"': case '\\': case '/': out->push_back(e); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': FOCQ_RETURN_IF_ERROR(Unicode(out)); break;
        default: return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  // Four hex digits, or nullopt.
  std::optional<unsigned> Hex4() {
    unsigned code = 0;
    const char* p = text_.data() + pos_;
    if (text_.size() - pos_ < 4 ||
        std::from_chars(p, p + 4, code, 16).ptr != p + 4) {
      return std::nullopt;
    }
    pos_ += 4;
    return code;
  }

  // The rest of a \u escape, appended as one byte below 0x80, else UTF-8.
  Status Unicode(std::string* out) {
    std::optional<unsigned> code = Hex4();
    if (!code) return Error("bad \\u escape");
    unsigned cp = *code;
    if (cp >= 0xd800 && cp < 0xdc00 && text_.substr(pos_, 2) == "\\u") {
      const std::size_t low_start = pos_;
      pos_ += 2;
      std::optional<unsigned> low = Hex4();
      if (low && *low >= 0xdc00 && *low < 0xe000) {
        cp = 0x10000 + ((cp - 0xd800) << 10) + (*low - 0xdc00);
      } else {
        pos_ = low_start;  // a lone high surrogate; the next escape stands
      }
    }
    // UTF-8: a lead byte, then six bits per continuation byte.
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr unsigned kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    out->push_back(static_cast<char>(kLead[extra] | cp >> (6 * extra)));
    for (int i = extra - 1; i >= 0; --i) {
      out->push_back(static_cast<char>(0x80 | (cp >> (6 * i) & 0x3f)));
    }
    return Status::Ok();
  }

  // -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  Status Number(JsonValue* out) {
    const std::size_t start = pos_;
    auto next_in = [this](std::string_view set) {
      return pos_ < text_.size() && set.find(text_[pos_]) != set.npos;
    };
    auto digits = [&] {
      const std::size_t from = pos_;
      while (next_in("0123456789")) ++pos_;
      return pos_ > from;
    };
    if (next_in("-")) ++pos_;
    const std::size_t integer = pos_;
    if (!digits()) return Error("expected value");
    if (text_[integer] == '0' && pos_ - integer > 1) {
      return Error("leading zero in number");
    }
    if (next_in(".")) {
      ++pos_;
      if (!digits()) return Error("bad fraction");
    }
    if (next_in("eE")) {
      ++pos_;
      if (next_in("+-")) ++pos_;
      if (!digits()) return Error("bad exponent");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->str = text_.substr(start, pos_ - start);
    try {
      out->number = std::stod(out->str);
    } catch (...) {
      return Error("number out of range");
    }
    return Status::Ok();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<JsonValue> ParseJson(std::string_view text) {
  return Reader(text).Document();
}

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace focq
