// Quickstart: build a small database, write FOC(P) queries with the fluent
// API and the text parser, and evaluate them with both engines.
//
// Run: ./example_quickstart
#include <cstdio>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/logic/parser.h"
#include "focq/logic/printer.h"
#include "focq/structure/encode.h"

int main() {
  using namespace focq;

  // 1. A structure: the 4x4 grid graph as a {E/2}-database.
  Structure db = EncodeGraph(MakeGrid(4, 4));
  std::printf("universe: %zu elements, ||A|| = %zu\n", db.Order(),
              db.SizeNorm());

  // 2. A FOC1(P) sentence, built with the fluent API: "some vertex has
  //    exactly 4 neighbours" (an interior grid vertex).
  Var x = VarNamed("x"), y = VarNamed("y");
  Formula has_deg4 = Exists(x, TermEq(Count({y}, Atom("E", {x, y})), Int(4)));

  EvalOptions naive;
  naive.engine = Engine::kNaive;
  EvalOptions local;
  std::printf("sentence: %s\n", ToString(has_deg4).c_str());
  std::printf("  naive engine: %s\n",
              *ModelCheck(has_deg4, db, naive) ? "true" : "false");
  std::printf("  local engine: %s\n",
              *ModelCheck(has_deg4, db, local) ? "true" : "false");

  // 3. The same thing from text.
  Result<Formula> parsed =
      ParseFormula("exists x. @eq(#(y). (E(x, y)), 4)");
  std::printf("  parsed     : %s\n",
              *ModelCheck(*parsed, db, local) ? "true" : "false");

  // 4. The counting problem (Corollary 5.6): how many vertices have an odd
  //    number of neighbours?
  Formula odd_degree = Not(Pred(PredEven(), {Count({y}, Atom("E", {x, y}))}));
  std::printf("vertices of odd degree: %lld\n",
              static_cast<long long>(*CountSolutions(odd_degree, db, local)));

  // 5. A full FOC1(P) query (Definition 5.2): list every vertex with its
  //    degree and its number of degree-2 neighbours.
  Var z = VarNamed("z");
  Formula neighbour_is_corner =
      And(Atom("E", {x, y}), TermEq(Count({z}, Atom("E", {y, z})), Int(2)));
  Foc1Query query;
  query.head_vars = {x};
  query.condition = Eq(x, x);
  query.head_terms = {Count({y}, Atom("E", {x, y})),
                      Count({y}, neighbour_is_corner)};
  Result<QueryResult> rows = EvaluateQuery(query, db, local);
  std::printf("query rows (first 5 of %zu):\n", rows->rows.size());
  for (std::size_t i = 0; i < 5 && i < rows->rows.size(); ++i) {
    std::printf("  vertex %u: degree=%lld, corner-neighbours=%lld\n",
                rows->rows[i].elements[0],
                static_cast<long long>(rows->rows[i].counts[0]),
                static_cast<long long>(rows->rows[i].counts[1]));
  }
  return 0;
}
