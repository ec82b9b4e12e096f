// In-process execution against the focq library: the reference answers the
// served responses are checked against, and the traced serial replay that
// breaks a statement into the repo's layers by timing calls into their
// public functions from outside.
#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "focq/core/api.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"
#include "workload.h"

namespace perfbench {

/// The response text focq_serve sends for `statement`, computed by a Session
/// (local engine, ball cl-terms): "true"/"false", a count, or
/// "applied"/"noop" for updates.
focq::Result<std::string> ExecuteReference(focq::Session& session,
                                           const Statement& statement);

/// Expected answers of a read-only workload, computed before the timed
/// window. With offsets, every numeric answer is affine in k; the oracle
/// evaluates each template at k = 0, 1, 2, checks that, and extrapolates.
class ReadOracle {
 public:
  static focq::Result<ReadOracle> Build(const Workload& workload,
                                        const focq::Structure& a);
  std::string Expected(const Statement& statement) const;

 private:
  struct Answer {
    bool numeric = false;
    long long base = 0;
    long long slope = 0;
    std::string text;
  };
  std::vector<Answer> answers_;
};

/// Per-layer wall time of one read statement, in nanoseconds.
struct LayerNs {
  std::int64_t parse = 0;        // ParseFormula/ParseTerm + CheckSymbols
  std::int64_t compile = 0;      // CompileFormula / CompileTerm(Count(...))
  std::int64_t setup = 0;        // PlanExecutor constructor
  std::int64_t materialize = 0;  // MaterializeLayers
  std::int64_t residual = 0;     // CheckSentence / TermValue
  std::int64_t total = 0;        // the whole statement

  void Add(const LayerNs& o) {
    parse += o.parse;
    compile += o.compile;
    setup += o.setup;
    materialize += o.materialize;
    residual += o.residual;
    total += o.total;
  }
};

/// Set-up layers, timed on a fresh structure and EvalContext.
struct SetupLayers {
  double load_ms = 0;                         // ReadStructureFile
  double gaifman_ms = 0;                      // EvalContext::Gaifman
  std::map<std::uint32_t, double> cover_ms;   // sparse cover, per radius
};
focq::Result<SetupLayers> MeasureSetupLayers(
    const std::string& structure_path, const std::set<std::uint32_t>& radii);

/// Sparse-cover radii the workload's read templates need under the cover
/// engine (empty for the ball engine, which uses no cover).
std::set<std::uint32_t> CoverRadii(const Workload& workload,
                                   const focq::Signature& signature);

struct ReplayReport {
  std::size_t reads = 0;
  std::size_t updates = 0;
  LayerNs read_ns;                      // summed over the reads
  std::vector<std::int64_t> update_ns;  // EvalContext::ApplyUpdate, each
  focq::EvalMetrics metrics;            // the replay's MetricsSink
  std::int64_t clusters_rebuilt = 0;    // UpdateStats sums
  std::int64_t edges_added = 0;
  std::int64_t edges_removed = 0;
  double cache_hit_ratio = 0;           // over the replayed prefix
  std::int64_t cache_bytes = 0;         // context footprint at the end
  std::size_t mismatches = 0;           // answers != reference
  double repeat_share = 0;              // 1 - distinct texts / statements
};

/// Serially replays stream[0, workload.replay_prefix) in generator order,
/// dispatching reads exactly as focq_serve's read path does and timing each
/// layer, after one untimed warm-up pass over the templates. `reference`
/// is called once per statement, in order, and returns the answer the
/// replay must reproduce.
focq::Result<ReplayReport> TracedReplay(
    const Workload& workload, const focq::Structure& initial,
    const StatementStream& stream,
    const std::function<std::string(const Statement&)>& reference);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
