// Edge cases of the full evaluation pipeline: tiny universes, nullary
// relations as first-class citizens, empty relations, markers flowing
// through layers, and queries whose answers are forced by structure
// degeneracies.
#include <gtest/gtest.h>

#include "focq/core/api.h"
#include "focq/graph/generators.h"
#include "focq/logic/build.h"
#include "focq/structure/encode.h"
#include "focq/structure/io.h"
#include "test_util.h"

namespace focq {
namespace {

EvalOptions Naive() {
  EvalOptions options;
  options.engine = Engine::kNaive;
  return options;
}
EvalOptions Local() { return EvalOptions{}; }

TEST(PipelineEdge, SingleElementUniverse) {
  Structure a(Signature({{"E", 2}, {"R", 1}}), 1);
  Var x = VarNamed("pe1x"), y = VarNamed("pe1y");
  Formula phi = Ge1(Count({y}, Atom("E", {x, y})));
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(phi, a, o), 0);
    EXPECT_FALSE(*ModelCheck(Exists(x, Atom("R", {x})), a, o));
    EXPECT_TRUE(*ModelCheck(Exists(x, Eq(x, x)), a, o));
  }
  a.AddTuple(0, {0, 0});  // self-loop tuple
  a.AddTuple(1, {0});
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(phi, a, o), 1);
  }
}

TEST(PipelineEdge, NullaryRelationsInFormulas) {
  Structure a(Signature({{"Flag", 0}, {"R", 1}}), 3);
  a.AddTuple(1, {0});
  Var x = VarNamed("pe2x");
  Formula uses_flag = And(Atom("Flag", {}), Atom("R", {x}));
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(uses_flag, a, o), 0);  // flag unset
  }
  a.AddTuple(0, {});
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(uses_flag, a, o), 1);
  }
}

TEST(PipelineEdge, NullaryMarkerThroughDecomposition) {
  // A ground cardinality condition becomes a 0-ary marker relation; make
  // sure the layer materialisation and the residual evaluation handle it.
  Structure a = EncodeGraph(MakeCycle(6));
  Var x = VarNamed("pe3x"), y = VarNamed("pe3y");
  // "the number of edges-tuples is even and x has a neighbour".
  Formula phi = And(Pred(PredEven(), {Count({x, y}, Atom("E", {x, y}))}),
                    Ge1(Count({y}, Atom("E", {x, y}))));
  Result<EvalPlan> plan = CompileFormula(phi, a.signature());
  ASSERT_TRUE(plan.ok());
  bool has_nullary = false;
  for (const auto& layer : plan->layers) {
    for (const auto& def : layer) has_nullary |= def.arity == 0;
  }
  EXPECT_TRUE(has_nullary);
  EXPECT_EQ(*CountSolutions(phi, a, Local()), 6);  // 12 tuples: even
  EXPECT_EQ(*CountSolutions(phi, a, Naive()), 6);
}

TEST(PipelineEdge, NegativeAndZeroConstantsInTerms) {
  Structure a = EncodeGraph(MakePath(4));
  Var x = VarNamed("pe4x"), y = VarNamed("pe4y");
  Term deg = Count({y}, Atom("E", {x, y}));
  // deg(x) - 2 >= 1 never holds on a path (max degree 2).
  Formula phi = Ge1(Sub(deg, Int(2)));
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(phi, a, o), 0);
  }
  // 0 * deg + (-1) is never >= 1.
  Formula zero = Ge1(Add(Mul(Int(0), deg), Int(-1)));
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(zero, a, o), 0);
  }
}

TEST(PipelineEdge, DisconnectedStructure) {
  // Two components; counting across them exercises the disconnected-pattern
  // inclusion-exclusion inside the pipeline.
  Structure left = EncodeGraph(MakePath(5));
  Structure right = EncodeGraph(MakeCycle(4));
  Structure a = Structure::DisjointUnion(left, right);
  Var x = VarNamed("pe5x"), y = VarNamed("pe5y");
  // Pairs (x, y) where both have degree >= 2 -- includes cross-component
  // pairs.
  Formula deg2 = Ge1(Sub(Count({VarNamed("pe5z")},
                               Atom("E", {x, VarNamed("pe5z")})),
                         Int(1)));
  Formula deg2y = Ge1(Sub(Count({VarNamed("pe5w")},
                                Atom("E", {y, VarNamed("pe5w")})),
                          Int(1)));
  Term pairs = Count({x, y}, And(deg2, deg2y));
  Result<CountInt> naive = EvaluateGroundTerm(pairs, a, Naive());
  Result<CountInt> local = EvaluateGroundTerm(pairs, a, Local());
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(local.ok()) << local.status().ToString();
  EXPECT_EQ(*naive, *local);
  // Path: 3 inner vertices; cycle: all 4. (3+4)^2 = 49.
  EXPECT_EQ(*naive, 49);
}

TEST(PipelineEdge, RemovalSignatureNamesSurviveIo) {
  // sigma~ names like "E~{1}" and "S_2" must round-trip through the text
  // format (they contain no whitespace).
  Structure a(Signature({{"E~{1}", 1}, {"S_2", 1}, {"E~{1,2}", 0}}), 3);
  a.AddTuple(0, {1});
  a.AddTuple(2, {});
  Result<Structure> back = ReadStructure(WriteStructure(a));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->Holds(*back->signature().Find("E~{1}"), {1}));
  EXPECT_TRUE(back->NullaryHolds(*back->signature().Find("E~{1,2}")));
}

TEST(PipelineEdge, RandomizedEngineAgreementOnDenseControls) {
  // The engines must agree on *somewhere dense* inputs too (just slower).
  Rng rng(888);
  Var x = VarNamed("pe6x"), y = VarNamed("pe6y");
  for (int round = 0; round < 5; ++round) {
    Structure a = EncodeGraph(MakeErdosRenyi(12, 0.5, &rng));
    Formula phi = TermEq(Count({y}, Atom("E", {x, y})), Int(6));
    EXPECT_EQ(*CountSolutions(phi, a, Naive()),
              *CountSolutions(phi, a, Local()));
  }
  Structure clique = EncodeGraph(MakeClique(10));
  Formula all9 = TermEq(Count({y}, Atom("E", {x, y})), Int(9));
  EXPECT_EQ(*CountSolutions(all9, clique, Naive()), 10);
  EXPECT_EQ(*CountSolutions(all9, clique, Local()), 10);
}

TEST(PipelineEdge, EmptyRelationsEverywhere) {
  // Every relation empty: counting terms are 0 everywhere, atoms never hold,
  // but equality and pure-logic subformulas still work.
  Structure a(Signature({{"E", 2}, {"R", 1}}), 5);
  Var x = VarNamed("pe8x"), y = VarNamed("pe8y");
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(Atom("E", {x, y}), a, o), 0);
    EXPECT_EQ(*CountSolutions(Atom("R", {x}), a, o), 0);
    EXPECT_EQ(*EvaluateGroundTerm(Count({x, y}, Atom("E", {x, y})), a, o), 0);
    // not E(x,y) holds for all 25 pairs on an empty edge relation.
    EXPECT_EQ(*CountSolutions(Not(Atom("E", {x, y})), a, o), 25);
    EXPECT_TRUE(*ModelCheck(Forall(x, Not(Atom("R", {x}))), a, o));
  }
}

TEST(PipelineEdge, DistanceBoundBeyondDiameter) {
  // dist(x,y) <= r with r far beyond the diameter: every connected pair
  // qualifies, and balls saturate to whole components.
  Structure a = Structure::DisjointUnion(EncodeGraph(MakePath(4)),
                                         EncodeGraph(MakePath(3)));
  Var x = VarNamed("pe9x"), y = VarNamed("pe9y");
  Formula near = DistAtMost(x, y, 50);
  for (const EvalOptions& o : {Naive(), Local()}) {
    // 4^2 pairs inside the path, 3^2 inside the triangle-free path.
    EXPECT_EQ(*CountSolutions(near, a, o), 16 + 9);
    // Counting within a huge radius equals the component size.
    Term reach = Count({y}, DistAtMost(x, y, 50));
    Formula comp4 = TermEq(reach, Int(4));
    EXPECT_EQ(*CountSolutions(comp4, a, o), 4);
  }
}

TEST(PipelineEdge, CountingTermsValuedZeroEverywhere) {
  // A counting term that is 0 for every assignment: predicates over it must
  // still evaluate correctly (0 is even, not >= 1, divides nothing...).
  Structure a = EncodeGraph(MakePath(5));
  Var x = VarNamed("peAx"), y = VarNamed("peAy");
  Term zero = Count({y}, And(Atom("E", {x, y}), Not(Eq(y, y))));
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_EQ(*CountSolutions(Ge1(zero), a, o), 0);
    EXPECT_EQ(*CountSolutions(Pred(PredEven(), {zero}), a, o), 5);
    EXPECT_EQ(*CountSolutions(TermEq(zero, Int(0)), a, o), 5);
    EXPECT_EQ(*EvaluateGroundTerm(Count({x}, Ge1(zero)), a, o), 0);
  }
}

TEST(PipelineEdge, SingleVertexNoEdges) {
  // The 1-element graph encoding: r-balls are trivial, covers degenerate.
  Graph g(1);
  g.Finalize();
  Structure a = EncodeGraph(g);
  Var x = VarNamed("peBx"), y = VarNamed("peBy");
  for (const EvalOptions& o : {Naive(), Local()}) {
    EXPECT_TRUE(*ModelCheck(Forall(x, Forall(y, Eq(x, y))), a, o));
    EXPECT_EQ(*CountSolutions(Ge1(Count({y}, Atom("E", {x, y}))), a, o), 0);
    EXPECT_EQ(*CountSolutions(DistAtMost(x, y, 3), a, o), 1);  // x = y only
  }
}

TEST(PipelineEdge, FullyDisconnectedGaifmanGraph) {
  // No binary tuples at all: the Gaifman graph has no edges, so every
  // cluster is a singleton and cross-element counting runs on markers only.
  Structure a(Signature({{"E", 2}, {"R", 1}}), 6);
  for (ElemId e : {0, 2, 4}) a.AddTuple(1, {e});
  Var x = VarNamed("peCx"), y = VarNamed("peCy");
  Term reds = Count({y}, Atom("R", {y}));
  for (const EvalOptions& o : {Naive(), Local()}) {
    // |R| = 3 independently of x (Eq(x,x) keeps x free, so all 6 qualify).
    EXPECT_EQ(*CountSolutions(And(Eq(x, x), TermEq(reds, Int(3))), a, o), 6);
    EXPECT_EQ(*CountSolutions(And(Atom("R", {x}), Ge1(reds)), a, o), 3);
    EXPECT_EQ(*EvaluateGroundTerm(Count({x, y}, DistAtMost(x, y, 2)), a, o),
              6);  // only the diagonal
  }
}

TEST(PipelineEdge, StringStructuresThroughThePipeline) {
  // Strings have clique Gaifman graphs; the pipeline must stay correct
  // (Section 4 is precisely about them being hard, not wrong).
  Structure s = EncodeString("abcabc", "abc");
  Var x = VarNamed("pe7x"), y = VarNamed("pe7y");
  // Number of positions with exactly 3 strictly-smaller positions.
  Formula three_before =
      TermEq(Count({y}, And(Atom("<=", {y, x}), Not(Eq(y, x)))), Int(3));
  EXPECT_EQ(*CountSolutions(three_before, s, Naive()), 1);
  EXPECT_EQ(*CountSolutions(three_before, s, Local()), 1);
}

}  // namespace
}  // namespace focq
