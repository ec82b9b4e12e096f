#include "focq/obs/querylog.h"

#include <cctype>
#include <utility>
#include <vector>

#include "focq/obs/metrics.h"
#include "focq/util/parse_number.h"

namespace focq {

std::uint64_t Fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string HexU64(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
  return out;
}

std::string QueryLogRecord::ToJsonLine() const {
  std::string out = "{\"seq\":" + std::to_string(seq) +
                    ",\"client\":" + std::to_string(client_id) +
                    ",\"trace\":\"" + HexU64(trace_id) + "\",\"kind\":";
  AppendJsonString(&out, kind);
  out += ",\"text\":";
  AppendJsonString(&out, text);
  out += std::string(",\"ok\":") + (ok ? "true" : "false") +
         ",\"deadline\":" + (deadline_exceeded ? "true" : "false") +
         ",\"ns\":{\"decode\":" + std::to_string(decode_ns) +
         ",\"queue\":" + std::to_string(queue_ns) +
         ",\"gate\":" + std::to_string(gate_ns) +
         ",\"exec\":" + std::to_string(exec_ns) +
         ",\"write\":" + std::to_string(write_ns) +
         ",\"total\":" + std::to_string(total_ns) +
         "},\"cache\":{\"hits\":" + std::to_string(cache_hits) +
         ",\"misses\":" + std::to_string(cache_misses) + "},\"digest\":\"" +
         HexU64(digest) + "\"}";
  return out;
}

namespace {

// A minimal cursor parser for the record schema above: objects, strings
// with the AppendJsonString escape set, integers, booleans. Not a general
// JSON parser — just enough to read back what ToJsonLine writes, with
// unknown keys skipped so the schema can grow.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  Status Expect(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      return Status::InvalidArgument(std::string("query log: expected '") +
                                     c + "' at offset " +
                                     std::to_string(pos_));
    }
    ++pos_;
    return Status::Ok();
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  Result<std::string> ParseString() {
    if (Status s = Expect('"'); !s.ok()) return s;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::InvalidArgument(
                "query log: truncated \\u escape");
          }
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::InvalidArgument("query log: bad \\u escape");
          }
          // The writer only emits \u00XX for control bytes.
          out.push_back(static_cast<char>(value & 0xff));
          break;
        }
        default:
          return Status::InvalidArgument(
              std::string("query log: unknown escape '\\") + e + "'");
      }
    }
    return Status::InvalidArgument("query log: unterminated string");
  }

  /// One integer field of type T: decimal digits only (the writer never
  /// emits a sign) that fit in T, read by ParseNumber.
  template <typename T>
  Result<T> ParseInt() {
    Result<std::string_view> token = NumberToken();
    if (!token.ok()) return token.status();
    T value = 0;
    if (!ParseNumber(*token, &value)) {
      return Status::InvalidArgument("query log: bad integer '" +
                                     std::string(*token) + "' at offset " +
                                     std::to_string(pos_ - token->size()));
    }
    return value;
  }

  Result<bool> ParseBool() {
    SkipSpace();
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return false;
    }
    return Status::InvalidArgument("query log: expected a boolean at offset " +
                                   std::to_string(pos_));
  }

  /// Skips one value of any supported shape (for unknown keys).
  Status SkipValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("query log: truncated value");
    }
    char c = text_[pos_];
    if (c == '"') return ParseString().status();
    if (c == '{') {
      ++pos_;
      if (Peek('}')) { ++pos_; return Status::Ok(); }
      for (;;) {
        if (Status s = ParseString().status(); !s.ok()) return s;
        if (Status s = Expect(':'); !s.ok()) return s;
        if (Status s = SkipValue(); !s.ok()) return s;
        if (Peek(',')) { ++pos_; continue; }
        return Expect('}');
      }
    }
    if (c == 't' || c == 'f') return ParseBool().status();
    return NumberToken().status();
  }

 private:
  // The text of one number: an optional '-' and a run of digits.
  Result<std::string_view> NumberToken() {
    SkipSpace();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return Status::InvalidArgument("query log: expected a number at offset " +
                                     std::to_string(pos_));
    }
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(start, pos_ - start);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Result<std::uint64_t> ParseHexU64(std::string_view hex) {
  if (hex.empty() || hex.size() > 16) {
    return Status::InvalidArgument("query log: bad hex u64 '" +
                                   std::string(hex) + "'");
  }
  std::uint64_t value = 0;
  for (char c : hex) {
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<std::uint64_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<std::uint64_t>(c - 'A' + 10);
    else {
      return Status::InvalidArgument("query log: bad hex u64 '" +
                                     std::string(hex) + "'");
    }
  }
  return value;
}

}  // namespace

Result<QueryLogRecord> ParseQueryLogLine(std::string_view line) {
  Cursor cursor(line);
  QueryLogRecord record;
  if (Status s = cursor.Expect('{'); !s.ok()) return s;
  if (cursor.Peek('}')) {
    return Status::InvalidArgument("query log: empty record");
  }
  for (;;) {
    Result<std::string> key = cursor.ParseString();
    if (!key.ok()) return key.status();
    if (Status s = cursor.Expect(':'); !s.ok()) return s;
    if (*key == "seq" || *key == "client") {
      Result<std::uint64_t> v = cursor.ParseInt<std::uint64_t>();
      if (!v.ok()) return v.status();
      (*key == "seq" ? record.seq : record.client_id) = *v;
    } else if (*key == "trace" || *key == "digest") {
      Result<std::string> hex = cursor.ParseString();
      if (!hex.ok()) return hex.status();
      Result<std::uint64_t> v = ParseHexU64(*hex);
      if (!v.ok()) return v.status();
      (*key == "trace" ? record.trace_id : record.digest) = *v;
    } else if (*key == "kind" || *key == "text") {
      Result<std::string> v = cursor.ParseString();
      if (!v.ok()) return v.status();
      (*key == "kind" ? record.kind : record.text) = std::move(*v);
    } else if (*key == "ok" || *key == "deadline") {
      Result<bool> v = cursor.ParseBool();
      if (!v.ok()) return v.status();
      (*key == "ok" ? record.ok : record.deadline_exceeded) = *v;
    } else if (*key == "ns" || *key == "cache") {
      if (Status s = cursor.Expect('{'); !s.ok()) return s;
      for (;;) {
        Result<std::string> field = cursor.ParseString();
        if (!field.ok()) return field.status();
        if (Status s = cursor.Expect(':'); !s.ok()) return s;
        Result<std::int64_t> v = cursor.ParseInt<std::int64_t>();
        if (!v.ok()) return v.status();
        if (*key == "ns") {
          if (*field == "decode") record.decode_ns = *v;
          else if (*field == "queue") record.queue_ns = *v;
          else if (*field == "gate") record.gate_ns = *v;
          else if (*field == "exec") record.exec_ns = *v;
          else if (*field == "write") record.write_ns = *v;
          else if (*field == "total") record.total_ns = *v;
        } else {
          if (*field == "hits") record.cache_hits = *v;
          else if (*field == "misses") record.cache_misses = *v;
        }
        if (cursor.Peek(',')) {
          (void)cursor.Expect(',');
          continue;
        }
        if (Status s = cursor.Expect('}'); !s.ok()) return s;
        break;
      }
    } else {
      if (Status s = cursor.SkipValue(); !s.ok()) return s;
    }
    if (cursor.Peek(',')) {
      (void)cursor.Expect(',');
      continue;
    }
    break;
  }
  if (Status s = cursor.Expect('}'); !s.ok()) return s;
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument("query log: trailing bytes after record");
  }
  if (record.kind.empty()) {
    return Status::InvalidArgument("query log: record has no kind");
  }
  return record;
}

Result<std::unique_ptr<QueryLogWriter>> QueryLogWriter::Open(Options options) {
  std::unique_ptr<QueryLogWriter> writer(
      new QueryLogWriter(std::move(options)));
  writer->out_.open(writer->options_.path,
                    std::ios::out | std::ios::trunc);
  if (!writer->out_) {
    return Status::NotFound("query log: cannot open '" +
                            writer->options_.path + "' for writing");
  }
  if (writer->options_.queue_capacity == 0) {
    writer->options_.queue_capacity = 1;
  }
  writer->writer_ = std::thread([w = writer.get()] { w->WriterLoop(); });
  return writer;
}

QueryLogWriter::~QueryLogWriter() { Close(); }

void QueryLogWriter::Append(QueryLogRecord record) {
  // A replay that misses an update diverges from it on, so updates pass
  // both the threshold and the queue cap.
  const bool update = record.kind == "update";
  if (!update && options_.slow_ms > 0 &&
      record.total_ns < options_.slow_ms * 1'000'000) {
    filtered_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_ || (!update && queue_.size() >= options_.queue_capacity)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    queue_.push_back(std::move(record));
    if (queue_.size() > peak_queue_.load(std::memory_order_relaxed)) {
      peak_queue_.store(queue_.size(), std::memory_order_relaxed);
    }
  }
  not_empty_.notify_one();
}

void QueryLogWriter::WriterLoop() {
  std::vector<QueryLogRecord> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      not_empty_.wait(lock, [this] { return closing_ || !queue_.empty(); });
      if (queue_.empty() && closing_) return;
      batch.assign(std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    for (const QueryLogRecord& record : batch) {
      out_ << record.ToJsonLine() << '\n';
      written_.fetch_add(1, std::memory_order_relaxed);
    }
    out_.flush();
    batch.clear();
  }
}

void QueryLogWriter::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closing_ && !writer_.joinable()) return;
    closing_ = true;
  }
  not_empty_.notify_all();
  if (writer_.joinable()) writer_.join();
  if (out_.is_open()) {
    out_.flush();
    out_.close();
  }
}

}  // namespace focq
