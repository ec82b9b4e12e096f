// Live query progress and the deadline watchdog.
//
// The Theorem 6.10 pipeline decomposes into phases whose work is countable
// up front (clusters of a cover, anchors of a ball sweep, sphere types,
// residual elements, naive tuples). A ProgressSink exposes one monotone
// {done, total} pair per phase, advanced by the engines at the existing
// ParallelFor chunk boundaries — so a stuck or slow query can be observed
// *while it runs*, which the post-hoc sinks (metrics/trace/EXPLAIN) cannot
// do.
//
// The same sink carries the cooperative deadline watchdog: ArmDeadline()
// starts a per-query clock, and the engines poll ShouldStop() at chunk
// granularity. Soft expiry fires a one-shot callback (the CLI wires it to a
// flight-recorder dump) and evaluation continues; hard expiry flips the
// cancelled flag and every engine loop drains cooperatively, returning a
// kDeadlineExceeded Status that embeds the progress snapshot.
//
// Contract with the concurrency model:
//   * Advance/AddTotal/ShouldStop are lock-free relaxed atomics, callable
//     from any chunk body. Progress counters for input-determined work are
//     identical across thread counts once a phase completes; intermediate
//     values are scheduling-dependent.
//   * When no deadline fires, installing a ProgressSink never changes
//     results — bit-identical for every num_threads (same guarantee as the
//     other sinks). When a hard deadline fires, the query returns
//     kDeadlineExceeded instead of a result; *which* chunk observes the
//     expiry first is scheduling-dependent, but the outcome (a clean error,
//     no partial cache writes) is not.
//   * Everything is null-safe at the call sites: engines poll through the
//     emitters of Instruments (obs/instruments.h), which guard on the sink
//     pointer, so evaluation without a sink costs one branch per poll.
#ifndef FOCQ_OBS_PROGRESS_H_
#define FOCQ_OBS_PROGRESS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>

#include "focq/util/status.h"

namespace focq {

/// The countable phases of the evaluation pipeline.
enum class ProgressPhase : int {
  kMaterialize = 0,  // marker-layer elements materialised
  kCover,            // cover clusters / balls built
  kClTerm,           // cl-term anchors (ball engine) or clusters (cover engine)
  kHanf,             // sphere types counted
  kRemoval,          // removal-surgery cluster checks
  kResidual,         // residual-formula elements checked
  kNaive,            // naive-engine tuples scanned
  kApprox,           // approx-engine samples drawn
};
inline constexpr int kNumProgressPhases = 8;

const char* ProgressPhaseName(ProgressPhase phase);

/// One phase's monotone work counters. total is a pre-announced upper
/// target (AddTotal before the loop); done advances as chunks complete.
struct PhaseProgress {
  std::int64_t done = 0;
  std::int64_t total = 0;
};

/// A per-query time budget. Zero means "none" for either bound. Soft expiry
/// observes (dump diagnostics, keep going); hard expiry cancels the query
/// cooperatively at the next chunk boundary.
struct Deadline {
  std::int64_t soft_ms = 0;
  std::int64_t hard_ms = 0;

  bool armed() const { return soft_ms > 0 || hard_ms > 0; }
};

/// Live progress + watchdog state for one consumer (CLI invocation, server
/// request, test). Thread-safe throughout; see the header comment for the
/// cost and determinism contract.
class ProgressSink {
 public:
  ProgressSink() = default;
  ProgressSink(const ProgressSink&) = delete;
  ProgressSink& operator=(const ProgressSink&) = delete;

  /// Pre-announces `delta` more work items for `phase` (call before the
  /// loop; totals accumulate across queries, matching the cumulative done).
  void AddTotal(ProgressPhase phase, std::int64_t delta);

  /// Marks `delta` items of `phase` finished (call at chunk completion).
  void Advance(ProgressPhase phase, std::int64_t delta);

  PhaseProgress Get(ProgressPhase phase) const;
  std::array<PhaseProgress, kNumProgressPhases> Snapshot() const;

  /// One-line human-readable snapshot of the non-idle phases:
  ///   "cover 8/8 cl_term 120/4096 hanf 0/17"
  /// ("(idle)" when nothing has been counted yet).
  std::string ToString() const;

  /// {"phases": {"cover": {"done": .., "total": ..}, ...},
  ///  "elapsed_ms": .., "cancelled": bool}
  std::string ToJson() const;

  /// Zeroes every phase counter (watchdog state is reset by ArmDeadline).
  void Reset();

  // --- deadline watchdog ---------------------------------------------------

  /// Starts (or restarts) the per-query clock with budget `d`. Clears the
  /// cancelled/soft-fired latches; called by the API entry points at the
  /// start of every evaluation so a Session re-arms per statement.
  void ArmDeadline(const Deadline& d);

  /// The cooperative poll, called from chunk bodies. Cheap: a relaxed tick
  /// counter gates the actual clock read to every 64th call. Returns true
  /// once the hard deadline has expired (and keeps returning true until
  /// re-armed). Fires the soft-expiry callback exactly once across all
  /// threads. Safe to call with no deadline armed (then: pure flag read).
  bool ShouldStop();

  /// True once a hard deadline expired (sticky until ArmDeadline).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Milliseconds since the last ArmDeadline (0 if never armed).
  std::int64_t ElapsedMs() const;

  /// The Status a cancelled evaluation returns: kDeadlineExceeded with the
  /// budget, the elapsed time and the progress snapshot in the message.
  Status DeadlineStatus() const;

  /// Installs the soft-expiry callback (e.g. "dump the flight recorder").
  /// Must be set before evaluation starts; invoked at most once per
  /// ArmDeadline, from whichever thread observes the expiry first, so it
  /// must be thread-safe and must not block on the evaluation.
  void SetSoftExpiryCallback(std::function<void()> callback) {
    soft_callback_ = std::move(callback);
  }

  const Deadline& deadline() const { return deadline_; }

 private:
  std::int64_t NowNs() const;

  struct alignas(64) Cell {
    std::atomic<std::int64_t> done{0};
    std::atomic<std::int64_t> total{0};
  };
  std::array<Cell, kNumProgressPhases> cells_;

  Deadline deadline_;                       // written by ArmDeadline only
  std::atomic<std::int64_t> start_ns_{0};   // 0: never armed
  std::atomic<std::int64_t> soft_ns_{0};    // absolute expiry, 0: none
  std::atomic<std::int64_t> hard_ns_{0};    // absolute expiry, 0: none
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> soft_fired_{false};
  std::atomic<std::uint32_t> tick_{0};
  std::function<void()> soft_callback_;     // set before evaluation starts
};

}  // namespace focq

#endif  // FOCQ_OBS_PROGRESS_H_
