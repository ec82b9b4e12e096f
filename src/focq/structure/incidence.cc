#include "focq/structure/incidence.h"

#include <algorithm>

#include "focq/util/check.h"

namespace focq {

TupleIncidence::TupleIncidence(const Structure& a)
    : a_(a), by_element_(a.universe_size()) {
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    const auto tuples = a.relation(id).tuples();
    for (std::uint32_t i = 0; i < tuples.size(); ++i) {
      // List each tuple once per distinct element.
      TupleRef t = tuples[i];
      for (std::size_t pos = 0; pos < t.size(); ++pos) {
        ElemId e = t[pos];
        bool first_occurrence = true;
        for (std::size_t prev = 0; prev < pos; ++prev) {
          if (t[prev] == e) {
            first_occurrence = false;
            break;
          }
        }
        if (first_occurrence) by_element_[e].emplace_back(id, i);
      }
    }
  }
}

SubstructureView InducedViewFast(const TupleIncidence& incidence,
                                 const std::vector<ElemId>& elements) {
  const Structure& a = incidence.structure();
  FOCQ_CHECK(!elements.empty());
  FOCQ_CHECK(std::is_sorted(elements.begin(), elements.end()));
  auto inside = [&elements](ElemId e) {
    return std::binary_search(elements.begin(), elements.end(), e);
  };
  auto to_local = [&elements](ElemId e) {
    return static_cast<ElemId>(
        std::lower_bound(elements.begin(), elements.end(), e) -
        elements.begin());
  };
  Structure sub(a.signature(), elements.size());
  Tuple mapped;
  for (ElemId e : elements) {
    for (auto [symbol, index] : incidence.Of(e)) {
      TupleRef t = a.relation(symbol).tuples()[index];
      bool all_inside = true;
      for (ElemId member : t) {
        if (!inside(member)) {
          all_inside = false;
          break;
        }
      }
      if (!all_inside) continue;
      mapped.clear();
      for (ElemId member : t) mapped.push_back(to_local(member));
      sub.AddTuple(symbol, mapped);  // Relation::Add deduplicates
    }
  }
  // Nullary tuples have no incidence; copy them directly.
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    if (a.signature().Arity(id) == 0 && a.NullaryHolds(id)) {
      sub.AddTuple(id, {});
    }
  }
  return SubstructureView{std::move(sub), elements};
}

}  // namespace focq
