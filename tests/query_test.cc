#include <gtest/gtest.h>

#include "focq/core/api.h"
#include "focq/eval/naive_eval.h"
#include "focq/eval/query.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/structure/encode.h"
#include "test_util.h"

namespace focq {
namespace {

EvalOptions WithEngine(Engine engine) {
  EvalOptions options;
  options.engine = engine;
  return options;
}

TEST(Foc1Query, ValidationRules) {
  Var x = VarNamed("qvx"), y = VarNamed("qvy");
  Foc1Query q;
  q.head_vars = {x};
  q.condition = Atom("R", {x});
  q.head_terms = {Count({y}, Atom("E", {x, y}))};
  EXPECT_TRUE(q.Validate().ok());

  Foc1Query dup = q;
  dup.head_vars = {x, x};
  EXPECT_FALSE(dup.Validate().ok());

  Foc1Query loose = q;
  loose.condition = Atom("E", {x, y});  // y is not a head variable
  EXPECT_FALSE(loose.Validate().ok());

  Foc1Query loose_term = q;
  loose_term.head_terms = {Count({}, Atom("R", {y}))};
  EXPECT_FALSE(loose_term.Validate().ok());

  Foc1Query not_foc1 = q;
  not_foc1.condition =
      And(Atom("R", {x}),
          TermEq(Count({}, Atom("R", {x})), Count({y}, Atom("E", {x, y}))));
  EXPECT_TRUE(not_foc1.Validate().ok());  // still one free var overall per app
}

TEST(Foc1Query, DegreeListingOnCycle) {
  // { (x, deg(x)) : true } on a 5-cycle: every vertex has degree 2.
  Structure a = EncodeGraph(MakeCycle(5));
  Var x = VarNamed("qdx"), y = VarNamed("qdy");
  Foc1Query q;
  q.head_vars = {x};
  q.condition = Eq(x, x);
  q.head_terms = {Count({y}, Atom("E", {x, y}))};
  Result<QueryResult> rows = EvaluateQueryNaive(q, a);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->rows.size(), 5u);
  for (ElemId e = 0; e < 5; ++e) {
    EXPECT_EQ(rows->rows[e].elements, Tuple{e});
    EXPECT_EQ(rows->rows[e].counts, std::vector<CountInt>{2});
  }
}

TEST(Foc1Query, LocalEngineMatchesNaive) {
  Rng rng(2500);
  Var x = VarNamed("qlx"), y = VarNamed("qly");
  for (int round = 0; round < 12; ++round) {
    Structure a = test::RandomColoredStructure(15, 1.4, 0.4, &rng);
    Foc1Query q;
    q.head_vars = {x};
    q.condition = Ge1(Count({y}, And(Atom("E", {x, y}), Atom("R", {y}))));
    q.head_terms = {Count({y}, Atom("E", {x, y})),
                    Add(Count({y}, And(Atom("E", {x, y}), Atom("R", {y}))),
                        Int(7))};
    Result<QueryResult> naive = EvaluateQuery(q, a, WithEngine(Engine::kNaive));
    Result<QueryResult> local = EvaluateQuery(q, a, WithEngine(Engine::kLocal));
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    EXPECT_EQ(naive->rows, local->rows);
  }
}

TEST(Foc1Query, NullaryHeads) {
  // { (#nodes, #edges) : true }.
  Structure a = EncodeGraph(MakePath(6));
  Var x = VarNamed("qnx"), y = VarNamed("qny");
  Foc1Query q;
  q.condition = Not(Exists(x, Not(Eq(x, x))));  // the paper's tautology
  q.head_terms = {Count({x}, Eq(x, x)), Count({x, y}, Atom("E", {x, y}))};
  for (Engine engine : {Engine::kNaive, Engine::kLocal}) {
    Result<QueryResult> rows = EvaluateQuery(q, a, WithEngine(engine));
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    ASSERT_EQ(rows->rows.size(), 1u);
    EXPECT_EQ(rows->rows[0].counts, (std::vector<CountInt>{6, 10}));
  }
}

TEST(Foc1Query, TwoVariableHeads) {
  // { (x, y, deg(x) * deg(y)) : E(x, y) } on a path.
  Structure a = EncodeGraph(MakePath(4));
  Var x = VarNamed("qtx"), y = VarNamed("qty"), z = VarNamed("qtz");
  Foc1Query q;
  q.head_vars = {x, y};
  q.condition = Atom("E", {x, y});
  q.head_terms = {Mul(Count({z}, Atom("E", {x, z})),
                      Count({z}, Atom("E", {y, z})))};
  Result<QueryResult> rows = EvaluateQuery(q, a, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 6u);  // 3 undirected edges, both directions
  // Rows are lexicographic: (0,1), (1,0), (1,2), ...
  EXPECT_EQ(rows->rows[0].elements, (Tuple{0, 1}));
  EXPECT_EQ(rows->rows[0].counts, std::vector<CountInt>{2});  // 1 * 2
  EXPECT_EQ(rows->rows[1].elements, (Tuple{1, 0}));
  EXPECT_EQ(rows->rows[1].counts, std::vector<CountInt>{2});  // 2 * 1
  EXPECT_EQ(rows->rows[2].elements, (Tuple{1, 2}));
  EXPECT_EQ(rows->rows[2].counts, std::vector<CountInt>{4});  // 2 * 2

  // The condition's exists-prefix re-binds the head variable x, so every x
  // qualifies: rows (0,1), (1,1), (2,1), not only the edge's (0,1).
  Foc1Query rebound;
  rebound.head_vars = {x, y};
  rebound.condition = Exists(x, Atom("E", {x, y}));
  Structure b = EncodeDigraph(3, {{0, 1}});
  Result<QueryResult> naive = EvaluateQueryNaive(rebound, b);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(naive->rows.size(), 3u);
  for (Engine engine : {Engine::kLocal, Engine::kApprox}) {
    Result<QueryResult> got = EvaluateQuery(rebound, b, WithEngine(engine));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->rows, naive->rows) << static_cast<int>(engine);
  }
}

// The Section 5 free-variable elimination: A |= phi[a-bar] iff the
// sentencized version holds on the expanded structure, and term values
// carry over.
TEST(Sentencize, PreservesSemantics) {
  Rng rng(2600);
  Var x = VarNamed("szx"), y = VarNamed("szy");
  for (int round = 0; round < 10; ++round) {
    Structure a = test::RandomColoredStructure(10, 1.4, 0.4, &rng);
    Foc1Query q;
    q.head_vars = {x};
    q.condition = Ge1(Count({y}, And(Atom("E", {x, y}), Atom("R", {y}))));
    q.head_terms = {Count({y}, Atom("E", {x, y}))};
    NaiveEvaluator naive(a);
    for (ElemId e = 0; e < a.universe_size(); ++e) {
      SentencizedQuery s = SentencizeAt(q, a, {e});
      NaiveEvaluator expanded(s.structure);
      EXPECT_EQ(naive.Satisfies(q.condition, {{x, e}}),
                expanded.Satisfies(s.sentence));
      EXPECT_EQ(*naive.Evaluate(q.head_terms[0], {{x, e}}),
                *expanded.Evaluate(s.ground_terms[0]));
      // The ground terms really are ground.
      EXPECT_TRUE(FreeVars(s.ground_terms[0]).empty());
      EXPECT_TRUE(FreeVars(s.sentence).empty());
    }
  }
}

}  // namespace
}  // namespace focq
