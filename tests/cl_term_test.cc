#include <gtest/gtest.h>

#include "focq/eval/naive_eval.h"
#include "focq/graph/generators.h"
#include "focq/locality/cl_term.h"
#include "focq/locality/delta.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "test_util.h"

namespace focq {
namespace {

TEST(Delta, ClosenessGraphMatchesDistances) {
  Structure a = EncodeGraph(MakePath(8));
  Graph g = BuildGaifmanGraph(a);
  BallExplorer explorer(g);
  // Tuple (0, 2, 7) at r=2: 0-2 close, 7 far from both.
  PatternGraph p = ClosenessGraph(&explorer, {0, 2, 7}, 2);
  EXPECT_TRUE(p.HasEdge(0, 1));
  EXPECT_FALSE(p.HasEdge(0, 2));
  EXPECT_FALSE(p.HasEdge(1, 2));
  // Repeated elements are at distance 0.
  PatternGraph q = ClosenessGraph(&explorer, {3, 3}, 0);
  EXPECT_TRUE(q.HasEdge(0, 1));
}

TEST(Delta, FormulaAgreesWithSemantics) {
  Rng rng(7);
  Structure a = test::RandomGraphStructure(15, 1.5, &rng);
  Graph g = BuildGaifmanGraph(a);
  BallExplorer explorer(g);
  NaiveEvaluator eval(a);
  Var x = VarNamed("dex"), y = VarNamed("dey"), z = VarNamed("dez");
  for (const PatternGraph& p : PatternGraph::AllGraphs(3)) {
    Formula delta = DeltaFormula(p, 2, {x, y, z});
    for (int t = 0; t < 12; ++t) {
      Tuple tuple = {static_cast<ElemId>(rng.NextBelow(15)),
                     static_cast<ElemId>(rng.NextBelow(15)),
                     static_cast<ElemId>(rng.NextBelow(15))};
      bool semantic = ClosenessGraph(&explorer, tuple, 2) == p;
      bool symbolic = eval.Satisfies(
          delta, {{x, tuple[0]}, {y, tuple[1]}, {z, tuple[2]}});
      EXPECT_EQ(semantic, symbolic);
    }
  }
}

TEST(Delta, ExactlyOnePatternPerTuple) {
  Rng rng(8);
  Structure a = test::RandomGraphStructure(12, 1.2, &rng);
  Graph g = BuildGaifmanGraph(a);
  BallExplorer explorer(g);
  for (int t = 0; t < 20; ++t) {
    Tuple tuple = {static_cast<ElemId>(rng.NextBelow(12)),
                   static_cast<ElemId>(rng.NextBelow(12)),
                   static_cast<ElemId>(rng.NextBelow(12))};
    int matches = 0;
    for (const PatternGraph& p : PatternGraph::AllGraphs(3)) {
      if (ClosenessGraph(&explorer, tuple, 3) == p) ++matches;
    }
    EXPECT_EQ(matches, 1);
  }
}

TEST(ClosenessOracle, MatchesBoundedDistance) {
  Rng rng(9);
  Graph g = MakeRandomSparse(40, 3, &rng);
  // Lazy, and backed by a lent table of the sorted 2-balls.
  BallTable table;
  for (VertexId v = 0; v < 40; ++v) table.push_back(Ball(g, {v}, 2));
  ClosenessOracle lazy(g, 2);
  ClosenessOracle backed(table, 2);
  for (ClosenessOracle* oracle : {&lazy, &backed}) {
    for (VertexId u = 0; u < 40; ++u) {
      for (VertexId v = 0; v < 40; ++v) {
        bool expected = BoundedDistance(g, u, v, 2) != kInfiniteDistance;
        EXPECT_EQ(oracle->Close(u, v), expected);
      }
    }
  }
}

TEST(ClTermAlgebra, PolynomialOps) {
  ClTerm five = ClTerm::Constant(5);
  ClTerm zero = ClTerm::Constant(0);
  EXPECT_TRUE(zero.IsZero());
  EXPECT_FALSE(five.IsZero());
  ClTerm sum = ClTerm::Add(five, ClTerm::Constant(-5));
  EXPECT_TRUE(sum.IsZero());  // zero monomials are dropped
  ClTerm prod = ClTerm::Mul(ClTerm::Constant(3), ClTerm::Constant(4));
  EXPECT_EQ(prod.NumMonomials(), 1u);
  EXPECT_TRUE(prod.IsGround());

  BasicClTerm basic;
  basic.vars = {VarNamed("ca")};
  basic.unary = false;
  basic.kernel = Atom("R", {VarNamed("ca")});
  basic.radius = 0;
  basic.pattern = PatternGraph(1, 0);
  ClTerm b = ClTerm::FromBasic(basic);
  ClTerm combined = ClTerm::Sub(ClTerm::Mul(b, b), b);
  EXPECT_EQ(combined.NumBasics(), 1u);  // structural interning merges
  EXPECT_EQ(combined.NumMonomials(), 2u);
}

// Ball evaluation of a basic cl-term must equal naive counting of
// kernel /\ delta_{G,2r+1}. Besides E and R, the structures carry a ternary
// relation T and a nullary flag Q, which every kernel reads next to its
// random part, so atoms of every arity are checked.
TEST(ClTermBallEval, MatchesNaiveOnRandomInputs) {
  Rng rng(404);
  Var y1 = VarNamed("cty1"), y2 = VarNamed("cty2"), y3 = VarNamed("cty3");
  std::vector<Var> vars = {y1, y2, y3};
  for (int round = 0; round < 12; ++round) {
    Structure colored = test::RandomColoredStructure(14, 1.3, 0.4, &rng);
    Structure a(Signature({{"E", 2}, {"R", 1}, {"T", 3}, {"Q", 0}}), 14);
    for (SymbolId id : {0, 1}) {
      for (TupleRef t : colored.relation(id).tuples()) a.AddTuple(id, t);
    }
    for (int i = 0; i < 12; ++i) {
      a.AddTuple(2, {static_cast<ElemId>(rng.NextBelow(14)),
                     static_cast<ElemId>(rng.NextBelow(14)),
                     static_cast<ElemId>(rng.NextBelow(14))});
    }
    if (rng.NextBool(0.5)) a.AddTuple(3, {});
    Graph gaifman = BuildGaifmanGraph(a);
    ClTermBallEvaluator ball(a, gaifman);
    NaiveEvaluator naive(a);
    std::uint32_t r = static_cast<std::uint32_t>(rng.NextBelow(2));
    Formula kernel =
        Or(And(Atom("Q", {}), Atom("T", {y1, y3, y2})),
           test::RandomQuantifierFree(vars, 2, true, r, &rng));
    for (const PatternGraph& p : PatternGraph::AllGraphs(3)) {
      if (!p.IsConnected()) continue;
      BasicClTerm basic{vars, /*unary=*/false, kernel, r, p};
      Result<CountInt> fast = ball.EvaluateBasicGround(basic);
      ASSERT_TRUE(fast.ok());
      Term reference =
          Count(vars, And(kernel, DeltaFormula(p, 2 * r + 1, vars)));
      EXPECT_EQ(*fast, *naive.Evaluate(reference))
          << ToString(kernel) << " pattern=" << p.edge_mask() << " r=" << r;

      BasicClTerm unary = basic;
      unary.unary = true;
      Result<std::vector<CountInt>> per_elem = ball.EvaluateBasicAll(unary);
      ASSERT_TRUE(per_elem.ok());
      Term unary_ref = Count(
          {y2, y3}, And(kernel, DeltaFormula(p, 2 * r + 1, vars)));
      for (ElemId e = 0; e < a.universe_size(); ++e) {
        EXPECT_EQ((*per_elem)[e], *naive.Evaluate(unary_ref, {{y1, e}}));
      }
    }
  }
}

TEST(ClTermBallEval, GroundIsSumOfUnary) {
  Rng rng(505);
  Structure a = test::RandomColoredStructure(20, 1.5, 0.3, &rng);
  Graph gaifman = BuildGaifmanGraph(a);
  ClTermBallEvaluator ball(a, gaifman);
  Var y1 = VarNamed("gsy1"), y2 = VarNamed("gsy2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  BasicClTerm basic{{y1, y2}, false, Atom("E", {y1, y2}), 0, edge};
  BasicClTerm unary = basic;
  unary.unary = true;
  Result<std::vector<CountInt>> per_elem = ball.EvaluateBasicAll(unary);
  ASSERT_TRUE(per_elem.ok());
  CountInt total = 0;
  for (CountInt v : *per_elem) total += v;
  EXPECT_EQ(total, *ball.EvaluateBasicGround(basic));
}

TEST(ClTermBallEval, CombinedPolynomials) {
  // (#edges-pattern)^2 - #red via cl-term algebra.
  Rng rng(606);
  Structure a = test::RandomColoredStructure(16, 1.4, 0.5, &rng);
  Graph gaifman = BuildGaifmanGraph(a);
  ClTermBallEvaluator ball(a, gaifman);
  NaiveEvaluator naive(a);
  Var y1 = VarNamed("cpy1"), y2 = VarNamed("cpy2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  PatternGraph single(1, 0);
  BasicClTerm edges{{y1, y2}, false, Atom("E", {y1, y2}), 0, edge};
  BasicClTerm reds{{y1}, false, Atom("R", {y1}), 0, single};
  ClTerm combined = ClTerm::Sub(
      ClTerm::Mul(ClTerm::FromBasic(edges), ClTerm::FromBasic(edges)),
      ClTerm::FromBasic(reds));
  CountInt e = *naive.Evaluate(
      Count({y1, y2}, And(Atom("E", {y1, y2}),
                          DeltaFormula(edge, 1, {y1, y2}))));
  CountInt red = *naive.Evaluate(Count({y1}, Atom("R", {y1})));
  EXPECT_EQ(*ball.EvaluateGround(combined), e * e - red);
}

TEST(RequiredCoverRadius, Formula) {
  BasicClTerm b;
  b.vars = {VarNamed("rc1"), VarNamed("rc2")};
  b.radius = 1;  // separation 3
  b.pattern = PatternGraph(2, 1);
  EXPECT_EQ(RequiredCoverRadius(b), 6u);
}

}  // namespace
}  // namespace focq
