// Tuple-level structure updates (DESIGN.md §3e): the update record itself,
// its text format, validated application to a Structure, and incremental
// maintenance of the Gaifman graph via co-occurrence support counts.
//
// An update touches only the elements of its tuple; by Gaifman/Hanf locality
// (and the Removal Lemma surgery of Section 7.3) every cached artifact can be
// repaired inside a bounded-radius ball around those elements. This header
// supplies the structure-layer half of that story: which Gaifman edges
// appear/disappear under an insert/delete. EvalContext::ApplyUpdate
// (focq/core/context.h) builds the region-scoped cover and sphere repairs on
// top of it.
#ifndef FOCQ_STRUCTURE_UPDATE_H_
#define FOCQ_STRUCTURE_UPDATE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "focq/graph/graph.h"
#include "focq/structure/structure.h"
#include "focq/util/status.h"

namespace focq {

/// The two tuple-level update operations.
enum class UpdateKind { kInsert, kDelete };

/// One update record: insert or delete a single tuple of a named relation.
struct TupleUpdate {
  UpdateKind kind = UpdateKind::kInsert;
  SymbolId symbol = 0;
  Tuple tuple;
};

/// Renders an update in the CLI / .case text format, e.g. "insert E 0 1" or
/// "delete R 3". Nullary facts render with no elements: "insert Q".
std::string UpdateToString(const TupleUpdate& u, const Signature& sig);

/// Parses the UpdateToString format against `sig`. Errors (unknown symbol,
/// arity mismatch, malformed element) are reported via Status, not aborts,
/// so CLI and corpus input stay triageable.
Result<TupleUpdate> ParseUpdate(std::string_view text, const Signature& sig);

/// Checks symbol id, arity and element bounds of `u` against `a` via Status
/// (AddTuple-style FOCQ_CHECKs would abort on bad CLI input). Every update
/// path validates through this before mutating anything.
Status ValidateUpdate(const Structure& a, const TupleUpdate& u);

/// Validated application (ValidateUpdate, then the tuple mutation). Returns
/// whether the structure actually changed — false for duplicate inserts and
/// deletes of absent tuples.
Result<bool> ApplyToStructure(Structure* a, const TupleUpdate& u);

/// The set of Gaifman edges created/destroyed by one update, as (min, max)
/// vertex pairs. Both lists are sorted and duplicate-free.
struct GaifmanDelta {
  std::vector<std::pair<VertexId, VertexId>> added;
  std::vector<std::pair<VertexId, VertexId>> removed;

  bool Empty() const { return added.empty() && removed.empty(); }
};

/// Distinct elements of `t`, sorted ascending. The update's "touched" set.
std::vector<ElemId> TupleElements(const Tuple& t);

/// Distinct unordered pairs {u, v} with u < v among the elements of `t` —
/// exactly the Gaifman edges the tuple witnesses (BuildGaifmanGraph counts
/// each pair once per tuple after adjacency-list dedup).
std::vector<std::pair<VertexId, VertexId>> TuplePairs(const Tuple& t);

/// Incremental Gaifman-graph maintenance.
///
/// Keeps, for every unordered vertex pair, the number of tuples across all
/// relations in which the two elements co-occur. An insert that raises a
/// pair's support 0 -> 1 adds a Gaifman edge; a delete that lowers it
/// 1 -> 0 removes one. Construct from the structure *before* mutating it,
/// then call ApplyInsert/ApplyDelete in step with Structure::InsertTuple/
/// DeleteTuple (only when those report an actual change — no-op updates must
/// not touch the support counts).
class GaifmanMaintainer {
 public:
  /// Builds support counts from the current (pre-update) structure in
  /// O(||A|| * max_arity^2).
  explicit GaifmanMaintainer(const Structure& a);

  /// Records the insertion of `t` and, if `g` is non-null, applies the edge
  /// additions to it in place (`g` must be finalized). Returns the delta.
  GaifmanDelta ApplyInsert(const Tuple& t, Graph* g);

  /// Records the deletion of `t`; symmetric to ApplyInsert.
  GaifmanDelta ApplyDelete(const Tuple& t, Graph* g);

 private:
  static std::uint64_t PairKey(VertexId u, VertexId v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;  // requires u < v
  }

  std::unordered_map<std::uint64_t, std::uint32_t> support_;
};

}  // namespace focq

#endif  // FOCQ_STRUCTURE_UPDATE_H_
