// focq_perfbench: the served-statement benchmark (README.md here).
//
//   focq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --workdir DIR
//
// Generates the workload's structure and statement stream from the seed,
// spawns focq_serve on the structure file and drives it from this single
// thread over loopback. --trace 0 measures the end-to-end metrics with the
// query log off; --trace 1 measures the per-layer metrics: serve stages
// from the query log of traced windows (alternating with untraced ones to
// price the tracing) and engine layers from an in-process serial replay.
// Every answer is checked. Human-readable lines come first; the last line
// of stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "focq/obs/querylog.h"
#include "focq/structure/io.h"
#include "loadgen.h"
#include "replay.h"
#include "server_process.h"
#include "workload.h"

namespace perfbench {
namespace {

using focq::Result;
using focq::Status;

// Set-up is repeated at least kMinSetups times and until kSetupBudgetS
// seconds are spent (at most kMaxSetups); setup_s is the median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 1.5;
constexpr int kTracedWindows = 4;  // untraced, traced, untraced, traced
// Every window starts with an untimed lead-in of the same closed loop, so
// the pool, the caches and the CPU clocks are warm when timing starts.
constexpr double kRampSeconds = 2;
constexpr int kSetupLayerRepetitions = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string workdir;
};

int Usage() {
  std::fprintf(stderr,
               "usage: focq_perfbench --workload read-large|read-small|"
               "update-cover --seed N\n"
               "                      --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args->workload = value;
      } else if (flag == "--seed") {
        args->seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args->seconds = std::stod(value);
      } else if (flag == "--trace") {
        args->trace = std::stoi(value);
      } else if (flag == "--workdir") {
        args->workdir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1) && !args->workdir.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

// Linear interpolation between closest ranks.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// The p99 of every block of kTailBlock consecutive statements (the last
// block takes the remainder), median over the blocks: each block has ten
// samples beyond its p99, and one disturbed stretch of a long window does
// not set the whole run's tail.
constexpr std::size_t kTailBlock = 1000;
double BlockedP99(const std::vector<double>& v) {
  const std::size_t blocks = std::max<std::size_t>(1, v.size() / kTailBlock);
  std::vector<double> p99s;
  for (std::size_t k = 0; k < blocks; ++k) {
    const auto first = v.begin() + k * kTailBlock;
    const auto last = k + 1 == blocks ? v.end() : first + kTailBlock;
    p99s.push_back(Quantile(std::vector<double>(first, last), 0.99));
  }
  return Median(p99s);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Metrics in report order, printed as "metric NAME = VALUE UNIT" lines and
// as the final JSON object.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, std::isfinite(value) ? value : 0, unit});
  }

  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("metric %s = %s %s\n", e.name.c_str(),
                  Format(e.value).c_str(), e.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (i > 0) out += ", ";
      out += "\"" + e.name + "\": {\"value\": " + Format(e.value) +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  static std::string Format(double v) {
    std::ostringstream out;
    out.precision(15);
    out << v;
    return out.str();
  }
  std::vector<Entry> entries_;
};

// Everything one run needs about its inputs.
struct Bench {
  Workload workload;
  Args args;
  GeneratedStructure generated;
  std::string structure_path;
  focq::Structure structure{focq::Signature(), 0};
  ReadOracle oracle;
  StatementStream* stream = nullptr;

  Statement WarmupStatement(std::size_t i) const {
    const Template& t = workload.templates[i];
    return {t.kind, Instantiate(t, 0), static_cast<int>(i), 0};
  }
};

// The statements one server lifetime answered: its warm-up pass, then
// (for the measured server) the timed window.
struct Served {
  LoadResult warmup;
  LoadResult window;
  double setup_s = 0;
};

struct Tally {
  std::size_t attempted = 0;
  std::size_t missing = 0;
  std::size_t errors = 0;
  std::size_t wrong = 0;
  std::size_t failed() const { return missing + errors + wrong; }
};

// Spawns a server and answers every template once; the elapsed time from
// spawn to the last warm-up answer is one set-up sample.
Result<std::unique_ptr<ServerProcess>> SetUp(const Bench& b,
                                             const std::string& log,
                                             Served* served) {
  const std::int64_t start = NowNs();
  Result<std::unique_ptr<ServerProcess>> server = ServerProcess::Spawn(
      FOCQ_SERVE_PATH, b.structure_path, b.workload.engine, log);
  if (!server.ok()) return server.status();
  LoadOptions warm;
  warm.max_statements = b.workload.templates.size();
  warm.trace_base = std::uint64_t{1} << 48;
  served->warmup = RunClosedLoop(
      (*server)->port(), [&](std::size_t i) { return b.WarmupStatement(i); },
      warm);
  served->setup_s = static_cast<double>(NowNs() - start) / 1e9;
  if (!served->warmup.status.ok()) return served->warmup.status;
  return server;
}

Result<LoadResult> Window(const Bench& b, ServerProcess& server,
                          double seconds, std::uint64_t trace_base) {
  LoadOptions options;
  options.connections = b.workload.connections;
  options.outstanding = b.workload.outstanding;
  options.ramp_seconds = kRampSeconds;
  options.seconds = seconds;
  options.trace_base = trace_base;
  LoadResult r = RunClosedLoop(
      server.port(), [&](std::size_t i) { return b.stream->At(i); }, options);
  if (!r.status.ok()) return r.status;
  return r;
}

// Checks every response of one server lifetime. Read-only workloads compare
// with the oracle; update-cover replays the answered statements in
// admission-seq order through a read-write Session with the local (ball)
// engine, which also cross-checks the served cover engine.
void Check(const Bench& b, Served* served, Tally* tally) {
  std::vector<std::pair<Sample*, Statement>> answered;
  auto collect = [&](LoadResult& r, bool warmup) {
    for (Sample& s : r.samples) {
      ++tally->attempted;
      if (s.recv_ns == 0) {
        ++tally->missing;
      } else if (!s.ok) {
        ++tally->errors;
      } else {
        answered.push_back(
            {&s, warmup ? b.WarmupStatement(s.index) : b.stream->At(s.index)});
      }
    }
  };
  collect(served->warmup, true);
  collect(served->window, false);
  if (b.workload.update_every == 0) {
    for (const auto& [sample, statement] : answered) {
      sample->correct = sample->response == b.oracle.Expected(statement);
      if (!sample->correct) ++tally->wrong;
    }
    return;
  }
  std::sort(answered.begin(), answered.end(),
            [](const auto& x, const auto& y) {
              return x.first->seq < y.first->seq;
            });
  focq::Structure a = b.structure;
  focq::Session session(&a);
  for (const auto& [sample, statement] : answered) {
    Result<std::string> expected = ExecuteReference(session, statement);
    sample->correct = expected.ok() && *expected == sample->response;
    if (!sample->correct) ++tally->wrong;
  }
}

// Client-observed latencies of the statements sent in the timed window.
std::vector<double> LatenciesMs(const LoadResult& r, bool updates_only) {
  std::vector<double> out;
  for (const Sample& s : r.samples) {
    if (s.recv_ns == 0 || s.send_ns < r.start_ns) continue;
    if (updates_only && s.kind != FrameKind::kUpdate) continue;
    out.push_back(static_cast<double>(s.recv_ns - s.send_ns) / 1e6);
  }
  return out;
}

// Correct answers that arrived in the timed window, per second.
double ThroughputSps(const LoadResult& r) {
  std::size_t answered = 0;
  for (const Sample& s : r.samples) {
    answered += s.correct && s.recv_ns >= r.start_ns;
  }
  return Ratio(static_cast<double>(answered),
               static_cast<double>(r.end_ns - r.start_ns) / 1e9);
}

void PrintOutcome(const Tally& tally, bool extra_ok, const MetricSet& m) {
  m.Print();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s}\n",
      tally.failed() == 0 && extra_ok ? "true" : "false", tally.attempted,
      tally.failed(), m.Json().c_str());
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

int RunMeasured(const Bench& b) {
  std::vector<double> setups;
  Tally tally;
  std::unique_ptr<ServerProcess> server;
  Served served;
  double spent_s = 0;
  for (int rep = 0; !server; ++rep) {
    Served warm;
    Result<std::unique_ptr<ServerProcess>> s = SetUp(b, "", &warm);
    if (!s.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", s.status().ToString().c_str());
      return 1;
    }
    setups.push_back(warm.setup_s);
    spent_s += warm.setup_s;
    const bool more = rep + 1 < kMinSetups ||
                      (spent_s < kSetupBudgetS && rep + 1 < kMaxSetups);
    if (more) {
      Check(b, &warm, &tally);
      if (Status down = (*s)->Shutdown(); !down.ok()) {
        std::fprintf(stderr, "%s\n", down.ToString().c_str());
        return 1;
      }
    } else {
      server = std::move(s).value();
      served = std::move(warm);
    }
  }
  Result<LoadResult> window = Window(b, *server, b.args.seconds, 1);
  if (!window.ok()) {
    std::fprintf(stderr, "window failed: %s\n",
                 window.status().ToString().c_str());
    return 1;
  }
  served.window = std::move(window).value();
  const double rss_mb = server->PeakRssMb();
  if (Status down = server->Shutdown(); !down.ok()) {
    std::fprintf(stderr, "%s\n", down.ToString().c_str());
    return 1;
  }
  Check(b, &served, &tally);

  const std::vector<double> lat = LatenciesMs(served.window, false);
  const std::vector<double> upd = LatenciesMs(served.window, true);
  std::printf("window: %zu statements sent (ramp included), %zu timed, "
              "%.3f s; load generator cpu %.1f%%\n",
              served.window.samples.size(), lat.size(),
              static_cast<double>(served.window.end_ns -
                                  served.window.start_ns) / 1e9,
              100 * Ratio(served.window.cpu_seconds,
                          static_cast<double>(served.window.end_ns -
                                              served.window.start_ns) / 1e9));
  std::printf("latency samples: %zu (p99 over %zu blocks of >= %zu); "
              "updates: %zu\n",
              lat.size(), std::max<std::size_t>(1, lat.size() / kTailBlock),
              std::min(lat.size(), kTailBlock), upd.size());
  std::printf("setup samples (s):");
  for (double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  // Printed, not in the JSON: error_rate is 0 on a correct run, and
  // update_latency_p50_ms exists on update-cover only (both are per-layer
  // metrics of the traced run).
  std::printf("error_rate = %.6g (%zu of %zu)\n",
              Ratio(static_cast<double>(tally.failed()),
                    static_cast<double>(tally.attempted)),
              tally.failed(), tally.attempted);
  if (!upd.empty()) {
    std::printf("update_latency_p50_ms = %.6g ms\n", Quantile(upd, 0.5));
  }

  MetricSet m;
  m.Set("throughput_sps", ThroughputSps(served.window), "1/s");
  m.Set("latency_p50_ms", Quantile(lat, 0.5), "ms");
  m.Set("latency_p99_ms", BlockedP99(lat), "ms");
  m.Set("setup_s", Median(setups), "s");
  m.Set("peak_rss_mb", rss_mb, "MiB");
  PrintOutcome(tally, rss_mb > 0, m);
  return 0;
}

// ---- --trace 1: per-layer metrics -------------------------------------------

struct StageSums {
  std::vector<double> decode, queue, gate, exec, write, pool, wire, client;
  std::vector<double> read_gate, read_exec, read_pool, drain, update_exec;
  std::int64_t dropped = 0;
};

// Joins one traced window's query log to the client samples by trace id.
Status AddStages(const std::string& log_path, const Served& served,
                 StageSums* sums) {
  std::ifstream in(log_path);
  if (!in) return Status::NotFound("no query log at " + log_path);
  std::unordered_map<std::uint64_t, focq::QueryLogRecord> records;
  std::string line;
  while (std::getline(in, line)) {
    Result<focq::QueryLogRecord> r = focq::ParseQueryLogLine(line);
    if (!r.ok()) return r.status();
    records.emplace(r->trace_id, std::move(*r));
  }
  sums->dropped += static_cast<std::int64_t>(served.warmup.samples.size() +
                                             served.window.samples.size()) -
                   static_cast<std::int64_t>(records.size());
  for (const Sample& s : served.window.samples) {
    auto it = records.find(s.trace_id);
    if (s.recv_ns == 0 || s.send_ns < served.window.start_ns ||
        it == records.end()) {
      continue;
    }
    const focq::QueryLogRecord& r = it->second;
    auto us = [](std::int64_t ns) { return static_cast<double>(ns) / 1e3; };
    const double pool = us(r.total_ns - r.decode_ns - r.queue_ns - r.gate_ns -
                           r.exec_ns - r.write_ns);
    const double client = us(s.recv_ns - s.send_ns);
    sums->decode.push_back(us(r.decode_ns));
    sums->queue.push_back(us(r.queue_ns));
    sums->gate.push_back(us(r.gate_ns));
    sums->exec.push_back(us(r.exec_ns));
    sums->write.push_back(us(r.write_ns));
    sums->pool.push_back(pool);
    sums->wire.push_back(client - us(r.total_ns));
    sums->client.push_back(client);
    if (s.kind == FrameKind::kUpdate) {
      sums->drain.push_back(us(r.gate_ns));
      sums->update_exec.push_back(us(r.exec_ns));
    } else {
      sums->read_gate.push_back(us(r.gate_ns));
      sums->read_exec.push_back(us(r.exec_ns));
      sums->read_pool.push_back(pool);
    }
  }
  return Status::Ok();
}

std::int64_t CounterOf(const focq::EvalMetrics& m, const std::string& name) {
  auto it = m.counters.find(name);
  return it == m.counters.end() ? 0 : it->second;
}

int RunTraced(const Bench& b) {
  Tally tally;
  StageSums stages;
  std::vector<double> untraced_sps, traced_sps, update_ms;
  double loadgen_cpu = 0, loadgen_wall = 0;
  const double seconds = b.args.seconds / kTracedWindows;
  for (int w = 0; w < kTracedWindows; ++w) {
    const bool traced = w % 2 == 1;
    const std::string log =
        traced ? b.args.workdir + "/querylog-" + std::to_string(w) + ".jsonl"
               : "";
    Served served;
    Result<std::unique_ptr<ServerProcess>> server = SetUp(b, log, &served);
    if (!server.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    Result<LoadResult> window =
        Window(b, **server, seconds, static_cast<std::uint64_t>(w + 1) << 32);
    if (!window.ok()) {
      std::fprintf(stderr, "window failed: %s\n",
                   window.status().ToString().c_str());
      return 1;
    }
    served.window = std::move(window).value();
    if (Status down = (*server)->Shutdown(); !down.ok()) {
      std::fprintf(stderr, "%s\n", down.ToString().c_str());
      return 1;
    }
    Check(b, &served, &tally);
    const double sps = ThroughputSps(served.window);
    if (traced) {
      traced_sps.push_back(sps);
      if (Status s = AddStages(log, served, &stages); !s.ok()) {
        std::fprintf(stderr, "query log: %s\n", s.ToString().c_str());
        return 1;
      }
    } else {
      untraced_sps.push_back(sps);
      loadgen_cpu += served.window.cpu_seconds;
      loadgen_wall +=
          static_cast<double>(served.window.end_ns - served.window.start_ns) /
          1e9;
      for (double ms : LatenciesMs(served.window, true)) {
        update_ms.push_back(ms);
      }
    }
  }

  // Engine layers: the serial in-process replay of the canonical prefix.
  std::function<std::string(const Statement&)> reference;
  focq::Structure ref_structure = b.structure;
  focq::Session ref_session(&ref_structure);
  if (b.workload.update_every == 0) {
    reference = [&](const Statement& s) { return b.oracle.Expected(s); };
  } else {
    reference = [&](const Statement& s) {
      Result<std::string> r = ExecuteReference(ref_session, s);
      return r.ok() ? *r : r.status().ToString();
    };
  }
  Result<ReplayReport> replay =
      TracedReplay(b.workload, b.structure, *b.stream, reference);
  if (!replay.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 replay.status().ToString().c_str());
    return 1;
  }
  const ReplayReport& rp = *replay;

  // Set-up layers on a fresh structure and context, median of a few.
  const std::set<std::uint32_t> radii =
      CoverRadii(b.workload, b.structure.signature());
  std::vector<double> load_ms, gaifman_ms, cover_ms;
  for (int rep = 0; rep < kSetupLayerRepetitions; ++rep) {
    Result<SetupLayers> layers = MeasureSetupLayers(b.structure_path, radii);
    if (!layers.ok()) {
      std::fprintf(stderr, "set-up layers: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    load_ms.push_back(layers->load_ms);
    gaifman_ms.push_back(layers->gaifman_ms);
    double covers = 0;
    for (const auto& [r, ms] : layers->cover_ms) {
      covers += ms;
      if (rep == 0) std::printf("cover radius %u used\n", r);
    }
    cover_ms.push_back(covers);
  }

  const double n = static_cast<double>(b.workload.n);
  const double reads = static_cast<double>(rp.reads);
  const double updates = static_cast<double>(rp.updates);
  auto per_read_us = [&](std::int64_t ns) {
    return Ratio(static_cast<double>(ns) / 1e3, reads);
  };
  const LayerNs& l = rp.read_ns;
  const std::int64_t unattributed =
      l.total - l.parse - l.compile - l.setup - l.materialize - l.residual;
  const focq::EvalMetrics& c = rp.metrics;
  const double placements =
      static_cast<double>(CounterOf(c, "clterm.placements_checked"));
  std::vector<double> apply_us;
  for (std::int64_t ns : rp.update_ns) {
    apply_us.push_back(static_cast<double>(ns) / 1e3);
  }

  MetricSet m;
  m.Set("serve.decode_us", Mean(stages.decode), "us");
  m.Set("serve.queue_wait_us", Mean(stages.queue), "us");
  m.Set("serve.gate_wait_us", Mean(stages.read_gate), "us");
  m.Set("serve.pool_wait_us", Mean(stages.read_pool), "us");
  m.Set("serve.exec_us", Mean(stages.read_exec), "us");
  m.Set("serve.write_us", Mean(stages.write), "us");
  m.Set("serve.wire_us", Mean(stages.wire), "us");
  m.Set("serve.drain_us", Mean(stages.drain), "us");
  m.Set("serve.update_exec_us", Mean(stages.update_exec), "us");
  m.Set("serve.client_latency_us", Mean(stages.client), "us");
  m.Set("serve.querylog_dropped", static_cast<double>(stages.dropped),
        "count");
  m.Set("update_latency_p50_ms", Quantile(update_ms, 0.5), "ms");
  m.Set("error_rate",
        Ratio(static_cast<double>(tally.failed()),
              static_cast<double>(tally.attempted)),
        "ratio");
  m.Set("logic.parse_us", per_read_us(l.parse), "us");
  m.Set("core.compile_us", per_read_us(l.compile), "us");
  m.Set("core.executor_setup_us", per_read_us(l.setup), "us");
  m.Set("core.materialize_us", per_read_us(l.materialize), "us");
  m.Set("core.residual_us", per_read_us(l.residual), "us");
  m.Set("core.unattributed_us", per_read_us(unattributed), "us");
  m.Set("core.replay_read_us", per_read_us(l.total), "us");
  m.Set("core.executor_setup_ns_per_elem",
        Ratio(static_cast<double>(l.setup), reads * n), "ns");
  m.Set("core.materialize_ns_per_elem",
        Ratio(static_cast<double>(l.materialize), reads * n), "ns");
  m.Set("locality.anchors_per_stmt",
        Ratio(static_cast<double>(CounterOf(c, "clterm.anchors_evaluated")),
              reads),
        "count");
  m.Set("locality.placements_per_stmt", Ratio(placements, reads), "count");
  m.Set("locality.ns_per_placement",
        Ratio(static_cast<double>(l.materialize + l.residual), placements),
        "ns");
  m.Set("cover.clusters_materialized_per_stmt",
        Ratio(static_cast<double>(
                  CounterOf(c, "cover_eval.clusters_materialized")),
              reads),
        "count");
  m.Set("core.apply_update_p50_us", Quantile(apply_us, 0.5), "us");
  m.Set("core.apply_update_p99_us", Quantile(apply_us, 0.99), "us");
  m.Set("cover.clusters_rebuilt_per_update",
        Ratio(static_cast<double>(rp.clusters_rebuilt), updates), "count");
  m.Set("cover.invalidations",
        static_cast<double>(CounterOf(c, "cache.invalidated.covers")),
        "count");
  m.Set("structure.edges_changed_per_update",
        Ratio(static_cast<double>(rp.edges_added + rp.edges_removed), updates),
        "count");
  m.Set("structure.load_ms", Median(load_ms), "ms");
  m.Set("structure.gaifman_build_ms", Median(gaifman_ms), "ms");
  m.Set("cover.build_ms", Median(cover_ms), "ms");
  m.Set("core.cache_hit_ratio", rp.cache_hit_ratio, "ratio");
  m.Set("core.cache_bytes", static_cast<double>(rp.cache_bytes), "bytes");
  m.Set("structure.copy_bytes",
        static_cast<double>(CounterOf(c, "mem.structure.bytes")), "bytes");
  m.Set("core.contention_ratio",
        Ratio(Mean(stages.read_exec), per_read_us(l.total)), "ratio");
  m.Set("driver.cpu_pct", 100 * Ratio(loadgen_cpu, loadgen_wall), "%");
  m.Set("obs.trace_overhead_pct",
        100 * Ratio(Median(untraced_sps) - Median(traced_sps),
                    Median(untraced_sps)),
        "%");
  for (const char* name :
       {"clterm.basics_evaluated", "clterm.anchors_evaluated",
        "clterm.balls_fetched", "clterm.placements_checked",
        "cover_eval.basics_evaluated", "cover_eval.clusters_materialized",
        "cover_eval.cluster_elements", "cover.clusters.rebuilt",
        "cover.clusters.added", "cache.invalidated.covers",
        "cache.invalidated.spheres", "plan.basic_cl_terms",
        "update.gaifman.edges_added", "update.gaifman.edges_removed"}) {
    m.Set(name, static_cast<double>(CounterOf(c, name)), "count");
  }
  m.Set("workload.repeat_share", rp.repeat_share, "ratio");

  // The two additive chains, remainders on their own lines.
  std::printf("closure serve (mean us over %zu traced statements): client "
              "%.3f = wire %.3f + decode %.3f + queue %.3f + gate %.3f + "
              "pool_wait %.3f + exec %.3f + write %.3f\n",
              stages.client.size(), Mean(stages.client), Mean(stages.wire),
              Mean(stages.decode), Mean(stages.queue), Mean(stages.gate),
              Mean(stages.pool), Mean(stages.exec), Mean(stages.write));
  std::printf("remainder serve.wire_us (client - server total) = %.3f us\n",
              Mean(stages.wire));
  std::printf("remainder serve.pool_wait_us (server total - named stages) = "
              "%.3f us\n",
              Mean(stages.pool));
  std::printf("closure replay (mean us over %zu reads; %zu updates "
              "replayed): total %.3f = parse "
              "%.3f + compile %.3f + executor_setup %.3f + materialize %.3f + "
              "residual %.3f + unattributed %.3f\n",
              rp.reads, rp.updates, per_read_us(l.total), per_read_us(l.parse),
              per_read_us(l.compile), per_read_us(l.setup),
              per_read_us(l.materialize), per_read_us(l.residual),
              per_read_us(unattributed));
  std::printf("remainder core.unattributed_us = %.3f us\n",
              per_read_us(unattributed));
  std::printf("throughput untraced %.2f / traced %.2f statements/s (medians)\n",
              Median(untraced_sps), Median(traced_sps));
  if (rp.mismatches > 0) {
    std::printf("replay: %zu answers differ from the reference\n",
                rp.mismatches);
  }
  PrintOutcome(tally, rp.mismatches == 0, m);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  std::optional<Workload> workload = FindWorkload(args.workload);
  if (!workload.has_value()) return Usage();

  Bench b;
  b.workload = *workload;
  b.args = args;
  b.generated = GenerateStructure(b.workload.n, args.seed);
  b.structure_path = args.workdir + "/" + b.workload.name + "-" +
                     std::to_string(args.seed) + ".structure";
  {
    std::ofstream out(b.structure_path, std::ios::trunc);
    out << b.generated.text;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", b.structure_path.c_str());
      return 1;
    }
  }
  focq::Result<focq::Structure> a = focq::ReadStructureFile(b.structure_path);
  if (!a.ok()) {
    std::fprintf(stderr, "%s\n", a.status().ToString().c_str());
    return 1;
  }
  b.structure = std::move(a).value();
  StatementStream stream(b.workload, b.generated, args.seed);
  b.stream = &stream;
  focq::Result<ReadOracle> oracle = ReadOracle::Build(b.workload, b.structure);
  if (!oracle.ok()) {
    std::fprintf(stderr, "%s\n", oracle.status().ToString().c_str());
    return 1;
  }
  b.oracle = std::move(oracle).value();

  std::printf("workload %s seed %llu: n = %zu, ||A|| = %zu, structure "
              "fnv1a %016llx, engine %s, %d connections x %d outstanding\n",
              b.workload.name.c_str(),
              static_cast<unsigned long long>(args.seed), b.structure.Order(),
              b.structure.SizeNorm(),
              static_cast<unsigned long long>(Fnv1a(b.generated.text)),
              b.workload.engine.c_str(), b.workload.connections,
              b.workload.outstanding);
  std::fflush(stdout);
  return args.trace == 0 ? RunMeasured(b) : RunTraced(b);
}
