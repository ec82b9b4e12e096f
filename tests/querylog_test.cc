// Structured query log tests: digest stability (committed logs must stay
// replayable across releases), JSONL round-trip through the line parser,
// forward compatibility (unknown keys), and the asynchronous writer's
// filter/drop accounting (DESIGN.md §3g, "Request lifecycle & query log").
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "focq/obs/querylog.h"

namespace focq {
namespace {

TEST(Fnv1a64Test, GoldenValuesAreStable) {
  // FNV-1a reference vectors: the offset basis for "" and the published
  // digests for short ASCII strings. These pin the exact function — any
  // change would silently invalidate every committed query log.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(Fnv1a64("true"), Fnv1a64(std::string("true")));
  EXPECT_NE(Fnv1a64("true"), Fnv1a64("false"));
}

TEST(Fnv1a64Test, HexU64IsFixedWidthLowercase) {
  EXPECT_EQ(HexU64(0), "0000000000000000");
  EXPECT_EQ(HexU64(0x2a), "000000000000002a");
  EXPECT_EQ(HexU64(0xdeadbeefcafef00dull), "deadbeefcafef00d");
  EXPECT_EQ(HexU64(~0ull), "ffffffffffffffff");
}

QueryLogRecord MakeRecord() {
  QueryLogRecord r;
  r.seq = 17;
  r.client_id = 3;
  r.trace_id = 0xabcdef0123456789ull;
  r.kind = "count";
  r.text = "@ge1(#(y). (E(x, y)))";
  r.ok = true;
  r.deadline_exceeded = false;
  r.decode_ns = 1200;
  r.queue_ns = 53000;
  r.gate_ns = 40;
  r.exec_ns = 1900000;
  r.write_ns = 2100;
  r.total_ns = 1956340;
  r.cache_hits = 4;
  r.cache_misses = 1;
  r.digest = Fnv1a64("2");
  return r;
}

TEST(QueryLogRecordTest, JsonLineRoundTrips) {
  const QueryLogRecord r = MakeRecord();
  const std::string line = r.ToJsonLine();
  Result<QueryLogRecord> parsed = ParseQueryLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_TRUE(*parsed == r) << line;
}

TEST(QueryLogRecordTest, RoundTripsHostileStatementText) {
  QueryLogRecord r = MakeRecord();
  r.kind = "check";
  // Quotes, backslashes, newlines, tabs and a control byte: everything
  // AppendJsonString escapes must survive the trip.
  r.text = "say \"hi\" \\ twice\n\tand a control: \x01 byte";
  r.ok = false;
  r.deadline_exceeded = true;
  const std::string line = r.ToJsonLine();
  EXPECT_EQ(line.find('\n'), std::string::npos) << "JSONL must be one line";
  Result<QueryLogRecord> parsed = ParseQueryLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << line;
  EXPECT_TRUE(*parsed == r) << line;
}

TEST(QueryLogRecordTest, ParserSkipsUnknownKeysAndIgnoresFieldOrder) {
  // A record from a *future* schema: extra scalar, string, nested-object
  // keys, fields in a different order. Old replay tools must still read it.
  const std::string line =
      "{\"digest\":\"00000000000000ff\",\"future_flag\":true,"
      "\"kind\":\"term\",\"annotations\":{\"user\":\"abc\",\"depth\":3},"
      "\"text\":\"#(x). (E(x, x))\",\"seq\":9,\"client\":1,"
      "\"trace\":\"0000000000000002\",\"ok\":true,\"deadline\":false,"
      "\"ns\":{\"decode\":1,\"queue\":2,\"gate\":3,\"exec\":4,\"write\":5,"
      "\"total\":15,\"future_stage\":99},"
      "\"cache\":{\"hits\":0,\"misses\":2},\"note\":\"hello\"}";
  Result<QueryLogRecord> parsed = ParseQueryLogLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->seq, 9u);
  EXPECT_EQ(parsed->trace_id, 2u);
  EXPECT_EQ(parsed->kind, "term");
  EXPECT_EQ(parsed->digest, 0xffu);
  EXPECT_EQ(parsed->total_ns, 15);
  EXPECT_EQ(parsed->cache_misses, 2);
}

TEST(QueryLogRecordTest, ParserRejectsMalformedLines) {
  EXPECT_FALSE(ParseQueryLogLine("").ok());
  EXPECT_FALSE(ParseQueryLogLine("{}").ok());  // no kind
  EXPECT_FALSE(ParseQueryLogLine("not json").ok());
  EXPECT_FALSE(ParseQueryLogLine("{\"kind\":\"count\"} trailing").ok());
  EXPECT_FALSE(ParseQueryLogLine("{\"kind\":\"count\",\"trace\":\"xyz\"}").ok());
  EXPECT_FALSE(
      ParseQueryLogLine("{\"kind\":\"count\",\"seq\":").ok());  // truncated
}

class QueryLogWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("focq_querylog_" +
            std::to_string(getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "query.log").string();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::vector<std::string> ReadLines() {
    std::ifstream in(path_);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(QueryLogWriterTest, WritesEveryAppendedRecordInOrder) {
  QueryLogWriter::Options options;
  options.path = path_;
  Result<std::unique_ptr<QueryLogWriter>> writer =
      QueryLogWriter::Open(std::move(options));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (std::uint64_t i = 1; i <= 50; ++i) {
    QueryLogRecord r = MakeRecord();
    r.seq = i;
    (*writer)->Append(std::move(r));
  }
  (*writer)->Close();
  EXPECT_EQ((*writer)->written(), 50u);
  EXPECT_EQ((*writer)->dropped(), 0u);
  EXPECT_EQ((*writer)->filtered(), 0u);

  std::vector<std::string> lines = ReadLines();
  ASSERT_EQ(lines.size(), 50u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    Result<QueryLogRecord> parsed = ParseQueryLogLine(lines[i]);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    // One producer: file order is append order.
    EXPECT_EQ(parsed->seq, i + 1);
  }
}

TEST_F(QueryLogWriterTest, SlowMsThresholdFiltersFastRequests) {
  QueryLogWriter::Options options;
  options.path = path_;
  options.slow_ms = 10;  // log only requests slower than 10 ms
  Result<std::unique_ptr<QueryLogWriter>> writer =
      QueryLogWriter::Open(std::move(options));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  QueryLogRecord fast = MakeRecord();
  fast.seq = 1;
  fast.total_ns = 9'999'999;  // 9.99 ms: below threshold
  QueryLogRecord slow = MakeRecord();
  slow.seq = 2;
  slow.total_ns = 10'000'000;  // exactly 10 ms: logged
  (*writer)->Append(std::move(fast));
  (*writer)->Append(std::move(slow));
  (*writer)->Close();

  EXPECT_EQ((*writer)->written(), 1u);
  EXPECT_EQ((*writer)->filtered(), 1u);
  EXPECT_EQ((*writer)->dropped(), 0u);
  std::vector<std::string> lines = ReadLines();
  ASSERT_EQ(lines.size(), 1u);
  Result<QueryLogRecord> parsed = ParseQueryLogLine(lines[0]);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->seq, 2u);
}

TEST_F(QueryLogWriterTest, AppendAfterCloseDropsInsteadOfBlocking) {
  QueryLogWriter::Options options;
  options.path = path_;
  Result<std::unique_ptr<QueryLogWriter>> writer =
      QueryLogWriter::Open(std::move(options));
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  (*writer)->Append(MakeRecord());
  (*writer)->Close();
  (*writer)->Append(MakeRecord());  // must not block or crash
  (*writer)->Close();               // idempotent
  EXPECT_EQ((*writer)->written(), 1u);
  EXPECT_EQ((*writer)->dropped(), 1u);
  EXPECT_EQ(ReadLines().size(), 1u);
}

TEST_F(QueryLogWriterTest, OpenFailsCleanlyOnUnwritablePath) {
  QueryLogWriter::Options options;
  options.path = (dir_ / "no-such-dir" / "query.log").string();
  Result<std::unique_ptr<QueryLogWriter>> writer =
      QueryLogWriter::Open(std::move(options));
  EXPECT_FALSE(writer.ok());
}

}  // namespace
}  // namespace focq
