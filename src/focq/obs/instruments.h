// The instrumentation handle of the Theorem 6.10 pipeline: the thread count
// plus the four optional sinks (metrics, trace, EXPLAIN, progress) that every
// layer — compile, layer materialisation, artifact builds, cover and cl-term
// evaluation, residual — receives together. The option structs of the
// public API (EvalOptions, ExecOptions, ArtifactOptions, ApproxEvalHooks,
// RemovalEngineOptions) extend it, and the engines take it by const
// reference, so a hand-off is a slice or a copy of one value.
//
// Every emitter below is an inline branch on the sink pointer and does
// nothing when the sink is absent, so call sites need no null checks and
// evaluation with no sink installed costs one predictable branch per site
// (per chunk or per item on the polling paths; no virtual call, no atomic).
#ifndef FOCQ_OBS_INSTRUMENTS_H_
#define FOCQ_OBS_INSTRUMENTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "focq/obs/explain.h"
#include "focq/obs/metrics.h"
#include "focq/obs/progress.h"
#include "focq/obs/trace.h"
#include "focq/util/status.h"

namespace focq {

/// Execution width and observability sinks for one evaluation. All pointers
/// are borrowed (not owned) and may be null. Installing a sink never changes
/// a result (see DESIGN.md §3b, "Observability").
///   * num_threads: worker threads for every parallel loop (0 = all hardware
///     threads, 1 = serial). Results are bit-identical for every value:
///     parallel loops write disjoint slots and reduce partial counts in a
///     fixed chunk order (DESIGN.md, "Concurrency model").
///   * metrics: flat counters and value distributions. Counters of
///     input-determined quantities (layers, clusters, anchors, tuples) are
///     identical for every num_threads.
///   * trace: nested wall-clock spans (wall time only).
///   * explain, explain_parent: EXPLAIN / EXPLAIN ANALYZE. Plan nodes are
///     created under explain_parent (-1: new forest roots) and charged with
///     durations, memory high-water marks and — when metrics is installed
///     too — the counter deltas of their scope.
///   * progress: live per-phase progress and cooperative cancellation. The
///     engines advance it at chunk boundaries and poll ShouldStop() there;
///     once an armed hard deadline fires, the current fan-out drains and the
///     call returns kDeadlineExceeded. With no armed deadline it is pure
///     telemetry.
struct Instruments {
  int num_threads = 1;
  MetricsSink* metrics = nullptr;
  TraceSink* trace = nullptr;
  ExplainSink* explain = nullptr;
  int explain_parent = -1;
  ProgressSink* progress = nullptr;

  // --- metrics ---------------------------------------------------------------
  void Count(std::string_view name, std::int64_t delta) const {
    if (metrics != nullptr) metrics->AddCounter(name, delta);
  }
  void Max(std::string_view name, std::int64_t value) const {
    if (metrics != nullptr) metrics->MaxCounter(name, value);
  }
  void Merge(std::string_view name, const ValueStats& stats) const {
    if (metrics != nullptr) metrics->MergeValue(name, stats);
  }

  // --- EXPLAIN ---------------------------------------------------------------
  /// A new node under explain_parent; -1 (a no-op node) without a sink.
  int NewNode(std::string kind, std::string label) const {
    if (explain == nullptr) return -1;
    return explain->NewNode(explain_parent, std::move(kind), std::move(label));
  }
  /// Memory high-water mark of `node` (no-op for node -1).
  void NodeBytes(int node, std::int64_t bytes) const {
    if (explain != nullptr) explain->RecordBytes(node, bytes);
  }
  /// Per-node high-water counter of `node` (no-op for node -1).
  void NodeMax(int node, std::string_view name, std::int64_t value) const {
    if (explain != nullptr) explain->MaxCounter(node, name, value);
  }

  // --- progress and cancellation --------------------------------------------
  void AddTotal(ProgressPhase phase, std::int64_t n) const {
    if (progress != nullptr) progress->AddTotal(phase, n);
  }
  void Advance(ProgressPhase phase, std::int64_t n) const {
    if (progress != nullptr) progress->Advance(phase, n);
  }
  /// The cooperative poll of chunk and item loops (ProgressSink::ShouldStop).
  bool ShouldStop() const {
    return progress != nullptr && progress->ShouldStop();
  }
  /// True once an armed hard deadline expired.
  bool Cancelled() const {
    return progress != nullptr && progress->cancelled();
  }
  /// The kDeadlineExceeded Status of a cancelled call (with the progress
  /// snapshot when a sink is installed).
  Status DeadlineStatus() const {
    return progress != nullptr ? progress->DeadlineStatus()
                               : Status::DeadlineExceeded("cancelled");
  }
};

/// One pipeline phase: an EXPLAIN node timer on `node` and, inside it, a
/// trace span named `span` (which also feeds the flight recorder). An empty
/// span name opens no span; node -1 times nothing:
///   Phase phase(options, "residual_eval", node_ids.residual);
class Phase {
 public:
  Phase(const Instruments& in, std::string_view span, int node = -1)
      : timer_(in.explain, node, in.metrics) {
    if (!span.empty()) span_.emplace(in.trace, span);
  }

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  ScopedNodeTimer timer_;
  std::optional<ScopedSpan> span_;  // closes before the timer stops
};

}  // namespace focq

#endif  // FOCQ_OBS_INSTRUMENTS_H_
