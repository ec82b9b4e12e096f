// Sphere types for the bounded-degree baseline of Kuske & Schweikardt [16]
// (the paper's reference point in Sections 1 and 3): the r-sphere of an
// element is its r-neighbourhood substructure with a distinguished centre,
// and two elements behave identically under r-local formulas iff their
// spheres are isomorphic. On bounded-degree classes there are only f(r, d)
// many sphere types, which is what makes FOC(P) evaluation fixed-parameter
// *linear* there.
//
// This module provides exact rooted isomorphism for small substructures and
// a registry that interns spheres into dense type ids.
#ifndef FOCQ_HANF_SPHERE_H_
#define FOCQ_HANF_SPHERE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "focq/graph/graph.h"
#include "focq/obs/instruments.h"
#include "focq/structure/incidence.h"
#include "focq/structure/neighborhood.h"
#include "focq/structure/structure.h"

namespace focq {

/// Exact isomorphism test between two structures over the same signature
/// that maps `center_a` to `center_b`. Intended for small structures
/// (neighbourhood spheres); backtracking with BFS-layer/degree pruning.
bool RootedIsomorphic(const Structure& a, ElemId center_a, const Structure& b,
                      ElemId center_b);

/// Dense sphere-type id.
using SphereTypeId = std::uint32_t;

/// Interns rooted spheres up to isomorphism.
class SphereTypeRegistry {
 public:
  /// Returns the type of (sphere, center), registering a new representative
  /// if no isomorphic sphere is known. The sphere is copied on first sight.
  SphereTypeId TypeOf(const Structure& sphere, ElemId center);

  std::size_t NumTypes() const { return representatives_.size(); }

  /// The registered representative of a type.
  const Structure& Representative(SphereTypeId id) const {
    return representatives_[id].sphere;
  }
  ElemId RepresentativeCenter(SphereTypeId id) const {
    return representatives_[id].center;
  }

 private:
  struct Entry {
    Structure sphere;
    ElemId center;
  };

  /// Cheap iso-invariant prefilter key.
  static std::uint64_t InvariantKey(const Structure& sphere, ElemId center);

  std::vector<Entry> representatives_;
  std::unordered_map<std::uint64_t, std::vector<SphereTypeId>> by_invariant_;
};

/// Per-element sphere types of radius r for a whole structure, plus type
/// statistics. This is substrate S? of [16]: linear-time type assignment on
/// bounded-degree inputs.
struct SphereTypeAssignment {
  std::vector<SphereTypeId> type_of;  // per element
  SphereTypeRegistry registry;
  std::vector<std::vector<ElemId>> elements_of_type;

  /// Approximate resident footprint in bytes (type array, per-type element
  /// lists, interned representatives). A pure function of the assignment, so
  /// it falls under the determinism contract (memory accounting, DESIGN.md
  /// "Observability").
  std::int64_t ApproxBytes() const;
};

/// Computes the radius-r sphere type of every element. `gaifman` must be
/// BuildGaifmanGraph(a).
///
/// With num_threads > 1 the (dominant) sphere extraction — ball BFS plus
/// induced-substructure materialisation — fans out across workers in blocks;
/// interning into the registry stays sequential in element order, so type
/// ids and the whole assignment are bit-identical to the serial run.
///
/// The typing advances the handle's kHanf phase per element and polls the
/// deadline at block/element granularity; after a hard-deadline expiry a
/// PARTIAL assignment is returned — the caller (EvalContext::TrySphereTypes)
/// must check Cancelled() and discard it.
SphereTypeAssignment ComputeSphereTypes(const Structure& a,
                                        const Graph& gaifman, std::uint32_t r,
                                        const Instruments& in = {});

}  // namespace focq

#endif  // FOCQ_HANF_SPHERE_H_
