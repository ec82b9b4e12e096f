#include "focq/obs/querylog.h"

#include <charconv>
#include <utility>
#include <vector>

#include "focq/util/json.h"
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

Result<std::uint64_t> ParseHexU64(std::string_view hex) {
  std::uint64_t value = 0;
  const char* end = hex.data() + hex.size();
  if (hex.empty() || hex.size() > 16 ||
      std::from_chars(hex.data(), end, value, 16).ptr != end) {
    return Status::InvalidArgument("query log: bad hex u64 '" +
                                   std::string(hex) + "'");
  }
  return value;
}

Status WrongType(std::string_view key, const char* want) {
  return Status::InvalidArgument("query log: \"" + std::string(key) +
                                 "\" is not " + want);
}

// An integer field: a JSON number of decimal digits that fits in T.
template <typename T>
Status ReadInt(std::string_view key, const JsonValue& v, T* out) {
  if (v.kind == JsonValue::Kind::kNumber && ParseNumber(v.str, out)) {
    return Status::Ok();
  }
  return WrongType(key, "an integer in range");
}

}  // namespace

Result<QueryLogRecord> ParseQueryLogLine(std::string_view line) {
  Result<JsonValue> doc = ParseJson(line);
  if (!doc.ok()) return doc.status();
  if (doc->kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("query log: record is not an object");
  }
  using Kind = JsonValue::Kind;
  QueryLogRecord record;
  // Members in document order, so the last of duplicate keys wins.
  for (auto& [key, v] : doc.value().object) {
    if (key == "seq" || key == "client") {
      FOCQ_RETURN_IF_ERROR(
          ReadInt(key, v, key == "seq" ? &record.seq : &record.client_id));
    } else if (key == "trace" || key == "digest") {
      if (v.kind != Kind::kString) return WrongType(key, "a string");
      Result<std::uint64_t> hex = ParseHexU64(v.str);
      if (!hex.ok()) return hex.status();
      (key == "trace" ? record.trace_id : record.digest) = *hex;
    } else if (key == "kind" || key == "text") {
      if (v.kind != Kind::kString) return WrongType(key, "a string");
      (key == "kind" ? record.kind : record.text) = std::move(v.str);
    } else if (key == "ok" || key == "deadline") {
      if (v.kind != Kind::kBool) return WrongType(key, "a boolean");
      (key == "ok" ? record.ok : record.deadline_exceeded) = v.boolean;
    } else if (key == "ns" || key == "cache") {
      if (v.kind != Kind::kObject) return WrongType(key, "an object");
      for (const auto& [field, n] : v.object) {
        std::int64_t value = 0;
        FOCQ_RETURN_IF_ERROR(ReadInt(field, n, &value));
        if (key == "ns") {
          if (field == "decode") record.decode_ns = value;
          else if (field == "queue") record.queue_ns = value;
          else if (field == "gate") record.gate_ns = value;
          else if (field == "exec") record.exec_ns = value;
          else if (field == "write") record.write_ns = value;
          else if (field == "total") record.total_ns = value;
        } else {
          if (field == "hits") record.cache_hits = value;
          else if (field == "misses") record.cache_misses = value;
        }
      }
    }  // an unknown key may hold any value: the schema can grow
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
