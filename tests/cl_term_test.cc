#include <gtest/gtest.h>

#include <limits>

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
  ClTerm sum = ClTerm::Add(five, ClTerm::Constant(-5)).value();
  EXPECT_TRUE(sum.IsZero());  // zero monomials are dropped
  ClTerm prod =
      ClTerm::Mul(ClTerm::Constant(3), ClTerm::Constant(4)).value();
  EXPECT_EQ(prod.NumMonomials(), 1u);
  EXPECT_TRUE(prod.IsGround());

  BasicClTerm basic;
  basic.vars = {VarNamed("ca")};
  basic.unary = false;
  basic.kernel = Atom("R", {VarNamed("ca")});
  basic.radius = 0;
  basic.pattern = PatternGraph(1, 0);
  ClTerm b = ClTerm::FromBasic(basic);
  ClTerm combined = ClTerm::Sub(ClTerm::Mul(b, b).value(), b).value();
  EXPECT_EQ(combined.NumBasics(), 1u);  // structural interning merges
  EXPECT_EQ(combined.NumMonomials(), 2u);
}

// A coefficient past int64 is an error, not an abort: the compiler hands it
// on as kOutOfRange.
TEST(ClTermAlgebra, CoefficientOverflowIsOutOfRange) {
  constexpr CountInt kMax = std::numeric_limits<CountInt>::max();
  ClTerm max = ClTerm::Constant(kMax);
  ClTerm min = ClTerm::Constant(std::numeric_limits<CountInt>::min());
  for (const Result<ClTerm>& r :
       {ClTerm::Add(max, ClTerm::Constant(1)), ClTerm::Sub(min, max),
        ClTerm::Mul(max, ClTerm::Constant(2)), ClTerm::Negate(min)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_TRUE(ClTerm::Add(max, ClTerm::Constant(-1)).ok());
  EXPECT_TRUE(ClTerm::Negate(max).ok());
}

// Ball evaluation of a basic cl-term must equal naive counting of
// kernel /\ delta_{G,2r+1}. Besides E and R, the structures carry a ternary
// relation T and a nullary flag Q, which the Or-rooted kernel reads next to
// its random part, so atoms of every arity are checked. The And-rooted
// kernels, six per width at widths 2 and 3, are split into conjuncts, and
// their dists look as if they narrow but mostly must not. Two top-level
// dists join random positions, with bounds that may narrow a position's
// candidates (the smaller must win), join two non-parent positions, or
// reach past the separation 2r+1. Each of the others joins with
// probability 1/2, so that enough kernels stay satisfiable: a dist under a
// negation, a dist inside a disjunction (both below the separation, where
// they would narrow if top-level), a conjunct over y1 alone, and at width 3
// conjuncts whose last position is y2 or y3, one of which is the other's
// parent in the path patterns.
TEST(ClTermBallEval, MatchesNaiveOnRandomInputs) {
  Rng rng(404);
  Rng conjunct_rng(4040);
  Var y1 = VarNamed("cty1"), y2 = VarNamed("cty2"), y3 = VarNamed("cty3");
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
    auto check = [&](const std::vector<Var>& vars, const Formula& kernel) {
      const std::vector<Var> counted(vars.begin() + 1, vars.end());
      for (const PatternGraph& p :
           PatternGraph::AllGraphs(static_cast<int>(vars.size()))) {
        if (!p.IsConnected()) continue;
        BasicClTerm basic{vars, /*unary=*/false, kernel, r, p};
        const Formula delta = DeltaFormula(p, 2 * r + 1, vars);
        Result<CountInt> fast = ball.EvaluateBasicGround(basic);
        ASSERT_TRUE(fast.ok());
        EXPECT_EQ(*fast, *naive.Evaluate(Count(vars, And(kernel, delta))))
            << ToString(kernel) << " pattern=" << p.edge_mask() << " r=" << r;

        BasicClTerm unary = basic;
        unary.unary = true;
        Result<std::vector<CountInt>> per_elem = ball.EvaluateBasicAll(unary);
        ASSERT_TRUE(per_elem.ok());
        Term unary_ref = Count(counted, And(kernel, delta));
        for (ElemId e = 0; e < a.universe_size(); ++e) {
          EXPECT_EQ((*per_elem)[e], *naive.Evaluate(unary_ref, {{y1, e}}))
              << ToString(kernel) << " pattern=" << p.edge_mask()
              << " r=" << r << " y1=" << e;
        }
      }
    };
    std::vector<Var> vars = {y1, y2, y3};
    check(vars, Or(And(Atom("Q", {}), Atom("T", {y1, y3, y2})),
                   test::RandomQuantifierFree(vars, 2, true, r, &rng)));

    for (std::size_t width : {2, 3}) {
      vars = {y1, y2, y3};
      vars.resize(width);
      // dist(y_i, y_j) <= d for random i != j and d <= max_d.
      auto dist = [&](std::uint32_t max_d) {
        const std::size_t i = conjunct_rng.NextBelow(width);
        const std::size_t j =
            (i + 1 + conjunct_rng.NextBelow(width - 1)) % width;
        return DistAtMost(vars[i], vars[j],
                          static_cast<std::uint32_t>(
                              conjunct_rng.NextBelow(max_d + 1)));
      };
      auto random = [&](const std::vector<Var>& over) {
        return test::RandomQuantifierFree(over, 1, true, r, &conjunct_rng);
      };
      for (int kernel = 0; kernel < 6; ++kernel) {
        Formula first = dist(2 * r + 2);
        Formula second = dist(2 * r + 2);
        std::vector<Formula> rest;
        auto maybe = [&](auto make) {
          if (conjunct_rng.NextBool(0.5)) rest.push_back(make());
        };
        maybe([&] { return Not(dist(2 * r)); });
        maybe([&] {
          Formula disjoined = dist(2 * r);
          return Or(disjoined, random(vars));
        });
        maybe([&] { return random({y1}); });
        if (width == 3) {
          maybe([&] { return random({y1, y2}); });
          maybe([&] { return random({y1, y3}); });
        }
        // The nested conjunction is flattened into the same conjunct list;
        // an empty one is the constant true.
        check(vars, And({first, second, And(rest)}));
      }
    }
  }
}

// dist(y1, y2) <= 2 is below the separation 3 of r = 1, so y2's candidates
// come from y1's 2-ball: the engine checks sum_a |N_2(a)| placements, not
// sum_a |N_3(a)|, and still counts exactly, at every thread count and with
// the balls explored or read from lent tables.
TEST(ClTermBallEval, NarrowsCandidatesToTheKernelDistBall) {
  Structure a = EncodeGraph(MakeGrid(6, 7));
  std::vector<ElemId> reds;
  for (ElemId e = 0; e < a.universe_size(); e += 3) reds.push_back(e);
  a.AddUnarySymbol("R", reds);
  Graph gaifman = BuildGaifmanGraph(a);
  Var y1 = VarNamed("nky1"), y2 = VarNamed("nky2");
  PatternGraph edge(2, 0);
  edge.SetEdge(0, 1);
  Formula kernel = And(DistAtMost(y1, y2, 2), Atom("R", {y2}));
  BasicClTerm basic{{y1, y2}, /*unary=*/true, kernel, /*radius=*/1, edge};

  BallTable two, three;
  std::int64_t in_two_balls = 0;
  for (VertexId v = 0; v < gaifman.num_vertices(); ++v) {
    two.push_back(Ball(gaifman, {v}, 2));
    three.push_back(Ball(gaifman, {v}, 3));
    in_two_balls += static_cast<std::int64_t>(two.back().size());
  }
  const BallTables lent = {{2, &two}, {3, &three}};
  NaiveEvaluator naive(a);
  Term reference = Count({y2}, And(kernel, DeltaFormula(edge, 3, {y1, y2})));
  for (const BallTables* tables : {static_cast<const BallTables*>(nullptr),
                                   &lent}) {
    for (int threads : {1, 4}) {
      ClTermBallEvaluator ball(a, gaifman, {.num_threads = threads}, tables);
      Result<std::vector<CountInt>> values = ball.EvaluateBasicAll(basic);
      ASSERT_TRUE(values.ok());
      EXPECT_EQ(ball.explore_stats().placements, in_two_balls)
          << "threads " << threads << ", tables " << (tables != nullptr);
      for (ElemId e = 0; e < a.universe_size(); ++e) {
        EXPECT_EQ((*values)[e], *naive.Evaluate(reference, {{y1, e}}))
            << "y1=" << e << ", threads " << threads;
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
  ClTerm combined =
      ClTerm::Sub(
          ClTerm::Mul(ClTerm::FromBasic(edges), ClTerm::FromBasic(edges))
              .value(),
          ClTerm::FromBasic(reds))
          .value();
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
