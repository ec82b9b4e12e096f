// Per-element tuple incidence: for every universe element, the list of
// relation tuples containing it. Turns induced-substructure extraction from
// O(||A||) per call (a full relation scan) into O(local size), which is what
// makes per-sphere materialisation near-linear overall.
#ifndef FOCQ_STRUCTURE_INCIDENCE_H_
#define FOCQ_STRUCTURE_INCIDENCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "focq/structure/neighborhood.h"
#include "focq/structure/structure.h"

namespace focq {

/// An index from elements to the tuples mentioning them. Build once per
/// structure (O(||A||)); the structure must outlive the index.
class TupleIncidence {
 public:
  explicit TupleIncidence(const Structure& a);

  const Structure& structure() const { return a_; }

  /// (symbol, tuple index) pairs of tuples containing `e`, each tuple listed
  /// once even if `e` occurs at several positions.
  const std::vector<std::pair<SymbolId, std::uint32_t>>& Of(ElemId e) const {
    return by_element_[e];
  }

 private:
  const Structure& a_;
  std::vector<std::vector<std::pair<SymbolId, std::uint32_t>>> by_element_;
};

/// The induced substructure A[elements] built from the incidence index:
/// only tuples incident to a member are examined. `elements` must be sorted
/// and duplicate-free. Nullary relations are copied as-is.
SubstructureView InducedViewFast(const TupleIncidence& incidence,
                                 const std::vector<ElemId>& elements);

}  // namespace focq

#endif  // FOCQ_STRUCTURE_INCIDENCE_H_
