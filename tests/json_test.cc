// The one JSON reader (util/json.h) and the two artifact readers built on
// it: the query log's record walk (ParseQueryLogLine) and benchdiff's
// Google Benchmark rows (ParseBenchJson). Malformed input of any shape must
// come back as a status, never as an abort or a stack overflow.
#include "focq/util/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "focq/obs/benchdiff.h"
#include "focq/obs/querylog.h"

namespace focq {
namespace {

using Kind = JsonValue::Kind;

TEST(JsonReader, ObjectsKeepMemberOrderAndNumbersKeepTheirToken) {
  Result<JsonValue> doc =
      ParseJson(R"( {"b": [1, -2.5e3, true, null], "a": "x", "b": {}} )");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->kind, Kind::kObject);
  ASSERT_EQ(doc->object.size(), 3u);
  EXPECT_EQ(doc->object[0].first, "b");
  EXPECT_EQ(doc->object[1].first, "a");
  EXPECT_EQ(doc->object[2].second.kind, Kind::kObject);
  ASSERT_EQ(doc->Find("b")->kind, Kind::kArray) << "Find takes the first";
  EXPECT_EQ(doc->Find("missing"), nullptr);
  const std::vector<JsonValue>& items = doc->Find("b")->array;
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[1].kind, Kind::kNumber);
  EXPECT_EQ(items[1].str, "-2.5e3");
  EXPECT_DOUBLE_EQ(items[1].number, -2500.0);
  EXPECT_EQ(items[2].kind, Kind::kBool);
  EXPECT_TRUE(items[2].boolean);
  EXPECT_EQ(items[3].kind, Kind::kNull);
  EXPECT_EQ(doc->Find("a")->str, "x");
}

TEST(JsonReader, EveryByteRoundTripsThroughAppendJsonString) {
  std::string bytes;
  for (int b = 0; b < 256; ++b) bytes.push_back(static_cast<char>(b));
  std::string encoded;
  AppendJsonString(&encoded, bytes);
  EXPECT_NE(encoded.find("\\u0001"), std::string::npos);
  Result<JsonValue> doc = ParseJson(encoded);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->kind, Kind::kString);
  EXPECT_EQ(doc->str, bytes);
}

TEST(JsonReader, UnicodeEscapesAboveAsciiDecodeToUtf8) {
  Result<JsonValue> doc = ParseJson(
      R"("\u0041\u00e9\u20ac\ud83d\ude00\ud800x\/\b\f")");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->str,
            "A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80\xed\xa0\x80x/\b\f");
}

TEST(JsonReader, NumbersFollowTheJsonGrammar) {
  for (const char* token :
       {"0", "-0", "7", "-12", "1.5", "1e3", "1E+3", "2.5e-3"}) {
    Result<JsonValue> doc = ParseJson(token);
    ASSERT_TRUE(doc.ok()) << token << ": " << doc.status().ToString();
    EXPECT_EQ(doc->str, token);
  }
  for (const char* token :
       {"+1", "1-2", "01", "-01", "-", "1.", ".5", "1e", "1e+", "--1",
        "0x10", "1e999"}) {
    EXPECT_FALSE(ParseJson(token).ok()) << token;
  }
}

TEST(JsonReader, MalformedDocumentsAreAStatus) {
  for (const char* text :
       {"", " ", "{", "[1,]", R"({"a" 1})", R"({"a":1,})", R"({a:1})",
        R"("abc)", R"("\x")", R"("\u12")", R"("\u12g4")", "tru", "nul",
        "[1] 2", "{} {}", "'a'"}) {
    Result<JsonValue> doc = ParseJson(text);
    ASSERT_FALSE(doc.ok()) << text;
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument) << text;
  }
}

TEST(JsonReader, DeepNestingIsAStatusNotAStackOverflow) {
  auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(512)).ok());
  EXPECT_FALSE(ParseJson(nested(513)).ok());
  Result<JsonValue> deep = ParseJson(nested(100000));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      ParseQueryLogLine(R"({"kind":"count","x":)" + nested(100000) + "}")
          .ok());
}

QueryLogRecord FullRecord() {
  QueryLogRecord r;
  r.seq = 12;
  r.client_id = 2;
  r.trace_id = 0xfeedface01234567ull;
  r.kind = "check";
  r.text = "exists x. \"q\" \\ \n\t\x01";
  r.ok = false;
  r.deadline_exceeded = true;
  r.decode_ns = 1;
  r.queue_ns = 22;
  r.gate_ns = 333;
  r.exec_ns = 4444;
  r.write_ns = 55555;
  r.total_ns = 666666;
  r.cache_hits = 7;
  r.cache_misses = 8;
  r.digest = Fnv1a64("true");
  return r;
}

TEST(QueryLogReader, ControlAndNonAsciiBytesRoundTrip) {
  QueryLogRecord r = FullRecord();
  r.text = "ctl \x01 \x1f, UTF-8 \xc3\xa9\xe2\x82\xac, raw \xff\x80";
  const std::string line = r.ToJsonLine();
  EXPECT_NE(line.find("\\u0001"), std::string::npos) << line;
  Result<QueryLogRecord> parsed = ParseQueryLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(*parsed == r) << line;

  Result<QueryLogRecord> escaped =
      ParseQueryLogLine(R"({"kind":"check","text":"A\u0001\u007f"})");
  ASSERT_TRUE(escaped.ok()) << escaped.status().ToString();
  EXPECT_EQ(escaped->text, "A\x01\x7f");
}

TEST(QueryLogReader, IntegerFieldsAreDecimalAndInRange) {
  for (const char* seq : {"-1", "99999999999999999999", "1.5", "1e3", "01",
                          "\"7\"", "true", "null"}) {
    EXPECT_FALSE(ParseQueryLogLine(std::string(R"({"kind":"count","seq":)") +
                                   seq + "}")
                     .ok())
        << seq;
  }
  Result<QueryLogRecord> max = ParseQueryLogLine(
      R"({"kind":"count","seq":18446744073709551615,)"
      R"("ns":{"total":9223372036854775807}})");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->seq, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(max->total_ns, std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(ParseQueryLogLine(
                   R"({"kind":"count","ns":{"total":9223372036854775808}})")
                   .ok());
  EXPECT_FALSE(
      ParseQueryLogLine(R"({"kind":"count","ns":{"total":-1}})").ok());
  EXPECT_FALSE(ParseQueryLogLine(R"({"kind":"count","cache":{"new":"x"}})")
                   .ok())
      << "an unknown ns or cache field is still an integer";
}

TEST(QueryLogReader, UnknownKeysMayHoldAnyValue) {
  for (const char* value :
       {R"([1, [2, {"a": null}]])", "[]", "null", R"({"n": {"d": [true]}})",
        "1.5e3", R"("s")", "false"}) {
    Result<QueryLogRecord> parsed = ParseQueryLogLine(
        std::string(R"({"kind":"term","future":)") + value + R"(,"seq":4})");
    ASSERT_TRUE(parsed.ok()) << value << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->seq, 4u);
    EXPECT_EQ(parsed->kind, "term");
  }
}

TEST(QueryLogReader, LastDuplicateKeyWinsAndKnownKeysKeepTheirTypes) {
  Result<QueryLogRecord> parsed = ParseQueryLogLine(
      R"({"kind":"count","seq":1,"ns":{"total":5},"seq":2,"kind":"term",)"
      R"("ns":{"total":6}})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 2u);
  EXPECT_EQ(parsed->kind, "term");
  EXPECT_EQ(parsed->total_ns, 6);
  for (const char* line :
       {R"({"seq":1})", R"({"kind":""})", R"(["kind","count"])",
        R"({"kind":"count","ns":[1]})", R"({"kind":"count","ok":1})",
        R"({"kind":"count","trace":7})", R"({"kind":"count","trace":"xyz"})",
        R"({"kind":"count","digest":"00000000000000001"})",
        R"({"kind":7})", R"({"kind":"count","text":null})"}) {
    EXPECT_FALSE(ParseQueryLogLine(line).ok()) << line;
  }
}

// Each prefix is copied into a buffer of exactly its length, so a read past
// the end is a heap overflow the address sanitizer reports.
TEST(QueryLogReader, EveryProperPrefixOfARecordIsRejected) {
  const std::string line = FullRecord().ToJsonLine();
  ASSERT_TRUE(ParseQueryLogLine(line).ok());
  for (std::size_t n = 0; n < line.size(); ++n) {
    std::unique_ptr<char[]> prefix(new char[n]);
    line.copy(prefix.get(), n);
    Result<QueryLogRecord> parsed =
        ParseQueryLogLine(std::string_view(prefix.get(), n));
    ASSERT_FALSE(parsed.ok()) << line.substr(0, n);
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << line.substr(0, n);
  }
}

TEST(BenchJsonReader, NonJsonNumberTokensAreRejected) {
  auto bench = [](const std::string& real_time) {
    return R"({"benchmarks": [{"name": "BM_A", "run_type": "iteration",)"
           R"( "real_time": )" +
           real_time + "}]}";
  };
  Result<BenchRun> run = ParseBenchJson(bench("1.5e2"));
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(run->rows[0].real_time, 150.0);
  for (const char* token : {"+1", "1-2", "01", "1.", ".5", "1e", "1e999"}) {
    EXPECT_FALSE(ParseBenchJson(bench(token)).ok()) << token;
  }
}

}  // namespace
}  // namespace focq
