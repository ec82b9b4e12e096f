#include <gtest/gtest.h>

#include "focq/eval/naive_eval.h"
#include "focq/graph/generators.h"
#include "focq/locality/local_eval.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "test_util.h"

namespace focq {
namespace {

TEST(LocalityRadius, BasicRules) {
  Var x = VarNamed("lx"), y = VarNamed("ly"), z = VarNamed("lz");
  EXPECT_EQ(SyntacticLocalityRadius(Eq(x, y)), 0u);
  EXPECT_EQ(SyntacticLocalityRadius(Atom("E", {x, y})), 0u);
  EXPECT_EQ(SyntacticLocalityRadius(DistAtMost(x, y, 4)), 2u);
  EXPECT_EQ(SyntacticLocalityRadius(DistAtMost(x, y, 5)), 3u);
  EXPECT_EQ(SyntacticLocalityRadius(Not(DistAtMost(x, y, 4))), 2u);
  // The rule is conservative: the guard atom's own radius (ceil(d/2)) also
  // participates in the body's max before the guard distance is added.
  EXPECT_EQ(SyntacticLocalityRadius(
                GuardedExists(z, x, 2, Atom("E", {z, y}))),
            3u);
  EXPECT_EQ(SyntacticLocalityRadius(
                GuardedForall(z, x, 3, DistAtMost(z, y, 2))),
            5u);
  // Unguarded quantifiers are outside the fragment.
  EXPECT_FALSE(SyntacticLocalityRadius(Exists(z, Atom("E", {x, z}))).has_value());
  // Nested guards accumulate.
  Var w = VarNamed("lw");
  Formula nested = GuardedExists(
      z, x, 2, GuardedExists(w, z, 3, Atom("E", {w, w})));
  EXPECT_EQ(SyntacticLocalityRadius(nested), 7u);
}

TEST(LocalityRadius, GuardDetection) {
  Var x = VarNamed("lx"), z = VarNamed("lz");
  Formula ge = GuardedExists(z, x, 2, Atom("R", {z}));
  BallGuard g = DetectGuard(ge.node());
  EXPECT_TRUE(g.found);
  EXPECT_EQ(g.anchor, x);
  EXPECT_EQ(g.d, 2u);
  Formula gf = GuardedForall(z, x, 3, Atom("R", {z}));
  BallGuard g2 = DetectGuard(gf.node());
  EXPECT_TRUE(g2.found);
  EXPECT_EQ(g2.d, 3u);
  // Self-guard dist(z, z) <= d is not a guard.
  Formula self = Exists(z, And(DistAtMost(z, z, 1), Atom("R", {z})));
  EXPECT_FALSE(DetectGuard(self.node()).found);
  // With several guards the first conjunct (disjunct, for forall) wins,
  // written either way round; its bound is the radius locality adds.
  Var w = VarNamed("lw");
  Formula two = Exists(z, And({Atom("R", {z}), DistAtMost(x, z, 4),
                               DistAtMost(z, w, 1)}));
  BallGuard first = DetectGuard(two.node());
  EXPECT_TRUE(first.found);
  EXPECT_EQ(first.anchor, x);
  EXPECT_EQ(first.d, 4u);
  EXPECT_EQ(SyntacticLocalityRadius(two), 6u);  // 4 + ceil(4/2)
  Formula two_forall =
      Forall(z, Or({Atom("R", {z}), Not(DistAtMost(w, z, 5)),
                    Not(DistAtMost(z, x, 2))}));
  BallGuard first_forall = DetectGuard(two_forall.node());
  EXPECT_TRUE(first_forall.found);
  EXPECT_EQ(first_forall.anchor, w);
  EXPECT_EQ(first_forall.d, 5u);
}

// The locality property itself: evaluating a guarded kernel on N_r(a-bar)
// agrees with evaluating it on the full structure.
TEST(Locality, GuardedKernelsAreLocal) {
  Rng rng(101);
  for (int round = 0; round < 30; ++round) {
    Structure a = test::RandomColoredStructure(24, 1.4, 0.3, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    Var x = VarNamed("locx"), y = VarNamed("locy");
    Formula kernel = test::RandomGuardedKernel({x, y}, 3, true, 2, &rng);
    std::optional<std::uint32_t> r = SyntacticLocalityRadius(kernel);
    ASSERT_TRUE(r.has_value());
    NaiveEvaluator naive(a);
    for (int trial = 0; trial < 8; ++trial) {
      ElemId ax = static_cast<ElemId>(rng.NextBelow(a.universe_size()));
      ElemId ay = static_cast<ElemId>(rng.NextBelow(a.universe_size()));
      bool global = naive.Satisfies(kernel, {{x, ax}, {y, ay}});
      bool local =
          EvaluateOnNeighborhood(a, gaifman, kernel, {x, y}, {ax, ay}, *r);
      EXPECT_EQ(global, local)
          << ToString(kernel) << " at (" << ax << "," << ay << ") r=" << *r;
    }
  }
}

// LocalEvaluator must agree with NaiveEvaluator on arbitrary FOC(P) input.
TEST(LocalEvaluator, AgreesWithNaiveOnGuardedFormulas) {
  Rng rng(202);
  for (int round = 0; round < 40; ++round) {
    Structure a = test::RandomColoredStructure(18, 1.3, 0.4, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    NaiveEvaluator naive(a);
    LocalEvaluator local(a, gaifman);
    Var x = VarNamed("lex");
    Formula f = test::RandomGuardedKernel({x}, 3, true, 2, &rng);
    for (ElemId e = 0; e < a.universe_size(); ++e) {
      EXPECT_EQ(naive.Satisfies(f, {{x, e}}), local.Satisfies(f, {{x, e}}))
          << ToString(f) << " at " << e;
    }
  }
}

TEST(LocalEvaluator, AgreesOnUnguardedAndCounting) {
  Rng rng(303);
  Var x = VarNamed("lux"), y = VarNamed("luy"), z = VarNamed("luz");
  for (int round = 0; round < 15; ++round) {
    Structure a = test::RandomColoredStructure(12, 1.5, 0.4, &rng);
    Graph gaifman = BuildGaifmanGraph(a);
    NaiveEvaluator naive(a);
    LocalEvaluator local(a, gaifman);
    // Unguarded sentence.
    Formula s = Exists(x, Forall(y, Or(Eq(x, y), Not(Atom("E", {x, y})))));
    EXPECT_EQ(naive.Satisfies(s), local.Satisfies(s));
    // Counting term with guard (fast path) and without (odometer).
    Term guarded = Count({z}, And(DistAtMost(z, x, 1), Atom("R", {z})));
    Term unguarded = Count({y, z}, And(Atom("E", {y, z}), Atom("R", {z})));
    for (ElemId e = 0; e < a.universe_size(); ++e) {
      EXPECT_EQ(*naive.Evaluate(guarded, {{x, e}}),
                *local.Evaluate(guarded, {{x, e}}));
    }
    Env env;
    EXPECT_EQ(*naive.Evaluate(unguarded), *local.Evaluate(unguarded, &env));
  }
}

TEST(LocalEvaluator, GuardedQuantifierEnumeratesBallOnly) {
  // On a long path, a guarded query anchored at one end never looks at the
  // far end; verify correctness on a case where the guard matters.
  Structure a = EncodeGraph(MakePath(50));
  Graph gaifman = BuildGaifmanGraph(a);
  LocalEvaluator local(a, gaifman);
  Var x = VarNamed("gbx"), z = VarNamed("gbz");
  // "There is a vertex within distance 3 of x of degree 1" -- true only near
  // the path's endpoints.
  Var w = VarNamed("gbw");
  Formula deg1 = Forall(
      w, Or(Not(Atom("E", {z, w})),
            Not(GuardedExists(VarNamed("gbv"), z, 1,
                              And(Atom("E", {z, VarNamed("gbv")}),
                                  Not(Eq(VarNamed("gbv"), w)))))));
  Formula f = GuardedExists(z, x, 3, deg1);
  EXPECT_TRUE(local.Satisfies(f, {{x, 1}}));
  EXPECT_TRUE(local.Satisfies(f, {{x, 48}}));
  EXPECT_FALSE(local.Satisfies(f, {{x, 25}}));
}

}  // namespace
}  // namespace focq
