#include "focq/structure/gaifman.h"

namespace focq {

Graph BuildGaifmanGraph(const Structure& a) {
  Graph g(a.universe_size());
  for (SymbolId id = 0; id < a.signature().NumSymbols(); ++id) {
    for (TupleRef t : a.relation(id).tuples()) {
      for (std::size_t i = 0; i < t.size(); ++i) {
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (t[i] != t[j]) g.AddEdge(t[i], t[j]);
        }
      }
    }
  }
  g.Finalize();
  return g;
}

}  // namespace focq
