// Cross-query artifact caching (the serving-workload counterpart of the
// Theorem 6.10 pipeline): an EvalContext owns a view of one fixed structure
// plus lazily-built, immutable caches of every expensive query-independent
// artifact — the Gaifman graph, neighbourhood covers keyed by
// (radius, backend), and Hanf sphere-type partitions keyed by radius. One
// ModelCheck/CountSolutions/EvaluateQuery call needs each artifact at most
// once, but a workload of N queries over one database needs them N times;
// the context pays for each exactly once and amortises it across the batch
// (the reuse lever the Hanf-normal-form line [Kuske & Schweikardt,
// arXiv:1703.01122] and approximate FOC counting [Dreier & Rossmanith,
// arXiv:2010.14814] assume when answering many counting queries over one
// class of structures).
//
// Why sharing preserves the determinism contract: every cached artifact is a
// pure function of (structure, key) — covers and sphere typings are
// bit-identical for every num_threads (DESIGN.md, "Concurrency model") — so
// an artifact built by one query serves any later query, under any thread
// count, with exactly the answer that query would have computed itself.
// Artifact-*build* counters (gaifman.*, cover.*) are recorded only when an
// artifact is actually built, so they depend on cache state; everything else
// in the sink stays input-determined (DESIGN.md, "Cross-query artifact
// caching").
#ifndef FOCQ_CORE_CONTEXT_H_
#define FOCQ_CORE_CONTEXT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "focq/cover/neighborhood_cover.h"
#include "focq/hanf/sphere.h"
#include "focq/obs/instruments.h"
#include "focq/structure/update.h"
#include "focq/util/status.h"

namespace focq {

/// Which neighbourhood-cover construction an artifact was built with (part
/// of the cover cache key: the two constructions yield different covers).
enum class CoverBackend {
  kSparse,  // greedy (r, 2r)-cover (Section 8.1 / Theorem 8.1)
  kExact,   // X(a) = N_r(a) exact-ball cover (the per-radius ball lists)
};

/// The artifact getters take the instrumentation handle as it is (the name
/// stays for the callers that spell it, perfbench's replay among them). A
/// build triggered by an access records its build counters and span, and
/// adds a root-level "artifact" node to the EXPLAIN sink of whichever query
/// paid for it (explain_parent is not used); a cache hit records only the
/// ctx.cache.* counters. num_threads is a pure speed knob for builds: cached
/// artifacts are bit-identical for every value, which is what makes them
/// safe to share. Only the Try* getters honour cancellation; the infallible
/// getters ignore an armed deadline and always complete.
using ArtifactOptions = Instruments;

/// Per-update repair telemetry, the value half of ApplyUpdate. Every field
/// is determined by (structure, update, cache contents) alone, independent of
/// thread count — the repair itself is serial.
struct UpdateStats {
  bool changed = false;                   // did the structure actually change
  std::int64_t edges_added = 0;           // Gaifman edges created
  std::int64_t edges_removed = 0;         // Gaifman edges destroyed
  std::int64_t clusters_rebuilt = 0;      // cover clusters recomputed in place
  std::int64_t clusters_added = 0;        // sparse-cover centre promotions
  std::int64_t elements_retyped = 0;      // sphere types recomputed
  std::int64_t artifacts_invalidated = 0; // cache entries dropped wholesale
};

/// Reusable per-structure artifact cache. Thread-safe (getters may race from
/// concurrent sessions over the same context); references returned by the
/// getters are stable for the lifetime of the context — artifacts are built
/// at most once and never evicted, and mutate only under ApplyUpdate (see
/// below for the exact reference-stability contract under updates).
class EvalContext {
 public:
  /// Borrows `a`, which must outlive the context and stay unmodified for as
  /// long as artifacts are requested (cached artifacts would silently go
  /// stale otherwise). The one sanctioned mutation path is ApplyUpdate.
  explicit EvalContext(const Structure& a) : a_(&a) {}

  EvalContext(const EvalContext&) = delete;
  EvalContext& operator=(const EvalContext&) = delete;

  const Structure& structure() const { return *a_; }

  /// The Gaifman graph, built on first access (counter: gaifman.builds).
  const Graph& Gaifman(const ArtifactOptions& opts = {});

  /// The neighbourhood cover for (radius, backend), built on first access
  /// with the usual cover.* build counters and a "cover_build" span. The
  /// exact backend doubles as the ball engine's per-radius ball table: its
  /// clusters are exactly the sorted r-balls, indexed by vertex, and
  /// PlanExecutor lends them to ClTermBallEvaluator as BallTables.
  const NeighborhoodCover& Cover(std::uint32_t radius, CoverBackend backend,
                                 const ArtifactOptions& opts = {});

  /// The radius-r Hanf sphere-type partition, built on first access (span:
  /// "hanf_typing"). Typing *evaluation* counters stay with HanfEvaluator —
  /// they are per-use, not per-build, so they remain cache-state independent.
  const SphereTypeAssignment& SphereTypes(std::uint32_t radius,
                                          const ArtifactOptions& opts = {});

  /// Cancellable variants of Cover/SphereTypes: identical cache behaviour,
  /// but when `opts.progress` has an armed hard deadline that fires during
  /// the build, they return kDeadlineExceeded and DISCARD the partial
  /// artifact — nothing is inserted into the cache, so a later (re)run
  /// rebuilds from scratch and stays bit-identical to a cold run. Cache hits
  /// never fail: an already-built artifact is returned even after expiry.
  Result<const NeighborhoodCover*> TryCover(std::uint32_t radius,
                                            CoverBackend backend,
                                            const ArtifactOptions& opts = {});
  Result<const SphereTypeAssignment*> TrySphereTypes(
      std::uint32_t radius, const ArtifactOptions& opts = {});

  /// The radius-r typing if it is already cached, else nullptr — a pure
  /// peek: nothing is built, no hit/miss is recorded. The approximate engine
  /// uses it to report whether stratification reused a cached typing.
  const SphereTypeAssignment* CachedSphereTypes(std::uint32_t radius) const;

  /// Applies one tuple-level update to the structure AND incrementally
  /// repairs every cached artifact (DESIGN.md §3e). `a` must be the very
  /// structure this context was built over (passed mutably to make the
  /// aliasing explicit at the call site). Validation failures (unknown
  /// symbol, arity mismatch, out-of-universe element) are reported via
  /// Status and leave structure and caches untouched.
  ///
  /// Repair strategy — the update/invalidate contract:
  ///   * Gaifman graph: edge deltas from per-pair tuple support counts,
  ///     applied in place. Bit-identical to a rebuild.
  ///   * Exact covers (radius r): clusters of every vertex within distance r
  ///     (old or new graph) of the updated tuple's elements are recomputed.
  ///     Bit-identical to a rebuild.
  ///   * Sparse covers (radius r): clusters of centres within 2r are
  ///     recomputed; affected vertices keep their centre if it is still
  ///     within distance r, else reassign to the nearest centre in their
  ///     r-ball, else are promoted to a new centre. The result is a valid
  ///     (r, 2r)-cover (CheckCoverInvariants passes) but not necessarily the
  ///     cover a cold greedy rebuild would produce — answers are identical
  ///     because cover-based evaluation is correct for *any* valid cover.
  ///   * Sphere types (radius r): elements within distance r (old or new) of
  ///     the tuple's elements are retyped against the existing registry
  ///     (which only grows). The partition matches a rebuild; the dense type
  ///     ids may be numbered differently — answers do not depend on ids.
  ///   * Fallback: when an artifact's affected region exceeds half the
  ///     universe, or the update touches a nullary fact (which every sphere
  ///     embeds), the cache entry is dropped instead of repaired and the
  ///     next access rebuilds it (counter: cache.invalidated.*).
  ///
  /// Reference stability under updates: in-place repairs keep previously
  /// returned references valid (artifact slots are mutated, never moved);
  /// a *dropped* entry invalidates its references. Callers that hold
  /// references across ApplyUpdate must re-fetch after any update — the
  /// engines do this naturally by fetching per evaluation call.
  ///
  /// Not thread-safe against concurrent evaluation: callers must quiesce
  /// queries on this context for the duration of the call (it takes the
  /// cache mutex, but engines hold artifact references outside it).
  Result<UpdateStats> ApplyUpdate(Structure* a, const TupleUpdate& u,
                                  const ArtifactOptions& opts = {});

  /// Cache observability: lookups served from cache, builds performed, and
  /// an approximate footprint of everything cached so far.
  struct CacheStats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bytes = 0;
  };
  CacheStats cache_stats() const;

 private:
  /// Builds the Gaifman graph if absent (recording the miss); unlike the
  /// public getter it does not record a hit, so internal reuse by the cover
  /// and sphere builders does not inflate ctx.cache.hits.
  const Graph& EnsureGaifman(const ArtifactOptions& opts);

  /// Hit/miss bookkeeping into the internal stats, the caller sink and the
  /// flight recorder (`what` labels the artifact kind in the event ring).
  void RecordHit(const ArtifactOptions& opts, const char* what);
  void RecordMiss(const ArtifactOptions& opts, std::int64_t bytes,
                  const char* what);

  /// Recomputes stats_.bytes as the current footprint of everything cached
  /// (repairs and drops can shrink it, unlike the build-only accumulation).
  void RecomputeBytes();

  const Structure* a_;
  mutable std::mutex mutex_;
  std::optional<Graph> gaifman_;
  // std::map: references stay valid across later insertions.
  std::map<std::pair<std::uint32_t, int>, NeighborhoodCover> covers_;
  std::map<std::uint32_t, SphereTypeAssignment> spheres_;
  // Tuple-pair support counts backing incremental Gaifman repair; engaged by
  // the first ApplyUpdate that finds a cached graph, from the pre-update
  // structure, and kept in sync by every subsequent update.
  std::optional<GaifmanMaintainer> maintainer_;
  CacheStats stats_;
};

}  // namespace focq

#endif  // FOCQ_CORE_CONTEXT_H_
