#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "focq/logic/build.h"
#include "focq/logic/expr.h"
#include "focq/logic/fragment.h"
#include "focq/logic/parser.h"
#include "focq/logic/printer.h"
#include "focq/logic/qrank.h"
#include "focq/logic/vars.h"

namespace focq {
namespace {

TEST(Vars, InterningStable) {
  Var x1 = VarNamed("x");
  Var x2 = VarNamed("x");
  Var y = VarNamed("y");
  EXPECT_EQ(x1, x2);
  EXPECT_NE(x1, y);
  EXPECT_EQ(VarName(x1), "x");
  Var f1 = FreshVar("x");
  Var f2 = FreshVar("x");
  EXPECT_NE(f1, f2);
  EXPECT_NE(f1, x1);
}

// Servers parse and compile statements on many pool workers at once: every
// name must get exactly one id however the interning interleaves, and
// VarName must read back what was interned.
TEST(Vars, ParallelInterningIsConsistent) {
  constexpr int kThreads = 4;
  constexpr int kNames = 500;
  std::vector<std::vector<Var>> ids(kThreads, std::vector<Var>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &ids] {
      for (int i = 0; i < kNames; ++i) {
        ids[t][i] = VarNamed("parallel_" + std::to_string(i));
        const Var fresh = FreshVar("parallel_fresh");
        EXPECT_EQ(VarName(fresh).rfind("parallel_fresh$", 0), 0u);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int i = 0; i < kNames; ++i) {
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(ids[t][i], ids[0][i]);
    EXPECT_EQ(VarName(ids[0][i]), "parallel_" + std::to_string(i));
  }
}

TEST(Expr, FreeVarsBasics) {
  Var x = VarNamed("fx"), y = VarNamed("fy"), z = VarNamed("fz");
  Formula atom = Atom("E", {x, y});
  EXPECT_EQ(FreeVars(atom), (std::vector<Var>(
                                {std::min(x, y), std::max(x, y)})));
  Formula ex = Exists(y, atom);
  EXPECT_EQ(FreeVars(ex), std::vector<Var>{x});
  Term count = Count({x}, And(atom, Atom("E", {y, z})));
  std::vector<Var> free = FreeVars(count);
  EXPECT_EQ(free.size(), 2u);  // y and z
  EXPECT_TRUE(std::find(free.begin(), free.end(), x) == free.end());
}

TEST(Expr, CountDepth) {
  Var x = VarNamed("dx"), y = VarNamed("dy");
  Formula atom = Atom("E", {x, y});
  EXPECT_EQ(CountDepth(atom.node()), 0);
  Term t1 = Count({y}, atom);
  EXPECT_EQ(CountDepth(t1.node()), 1);
  Formula p = Ge1(t1);
  Term t2 = Count({x}, p);
  EXPECT_EQ(CountDepth(t2.node()), 2);
  Term sum = Add(t1, Int(5));
  EXPECT_EQ(CountDepth(sum.node()), 1);
}

TEST(Expr, QuantifierRank) {
  Var x = VarNamed("qx"), y = VarNamed("qy");
  EXPECT_EQ(QuantifierRank(Eq(x, y).node()), 0);
  EXPECT_EQ(QuantifierRank(Exists(x, Exists(y, Eq(x, y))).node()), 2);
  EXPECT_EQ(QuantifierRank(Or(Exists(x, Eq(x, x)), Exists(y, Eq(y, y))).node()),
            1);
}

TEST(Expr, StructuralEqualityAndHash) {
  Var x = VarNamed("hx"), y = VarNamed("hy");
  Formula a = And(Atom("E", {x, y}), Eq(x, y));
  Formula b = And(Atom("E", {x, y}), Eq(x, y));
  Formula c = And(Atom("E", {y, x}), Eq(x, y));
  EXPECT_TRUE(ExprEquals(a.node(), b.node()));
  EXPECT_FALSE(ExprEquals(a.node(), c.node()));
  EXPECT_EQ(ExprHash(a.node()), ExprHash(b.node()));
}

TEST(Expr, RenameFreeVar) {
  Var x = VarNamed("rx"), y = VarNamed("ry"), z = VarNamed("rz");
  Formula f = And(Atom("E", {x, y}), Exists(x, Atom("E", {x, y})));
  ExprRef renamed = RenameFreeVar(f.ref(), x, z);
  // Only the free occurrence changes.
  EXPECT_EQ(ToString(*renamed),
            "(E(" + VarName(z) + ", " + VarName(y) + ") & (exists " +
                VarName(x) + ". (E(" + VarName(x) + ", " + VarName(y) +
                "))))");
}

TEST(Expr, AtomSymbols) {
  Var x = VarNamed("sx");
  Formula f = And(Atom("E", {x, x}), Or(Atom("R", {x}), Atom("E", {x, x})));
  EXPECT_EQ(AtomSymbols(f.node()), (std::vector<std::string>{"E", "R"}));
}

TEST(Fragment, PureFoAndFoc1) {
  Var x = VarNamed("gx"), y = VarNamed("gy");
  Formula fo = Exists(x, Atom("E", {x, y}));
  EXPECT_TRUE(IsPureFO(fo.node()));
  EXPECT_TRUE(IsFOC1(fo));

  Formula counting = Ge1(Count({y}, Atom("E", {x, y})));
  EXPECT_FALSE(IsPureFO(counting.node()));
  EXPECT_TRUE(IsFOC1(counting));

  // Two free variables across the predicate's terms: not FOC1.
  Formula bad = TermEq(Count({}, Atom("R", {x})), Count({}, Atom("R", {y})));
  EXPECT_FALSE(IsFOC1(bad));
  EXPECT_EQ(CheckFOC1(bad.node()).code(), StatusCode::kInvalidArgument);

  Formula dist = DistAtMost(x, y, 3);
  EXPECT_FALSE(IsPureFO(dist.node()));
  EXPECT_TRUE(IsFOPlus(dist.node()));
}

TEST(Fragment, PaperExample32IsFoc1) {
  // Prime(#(x).x=x + #(x,y).E(x,y)) -- first formula of Example 3.2.
  Var x = VarNamed("e32x"), y = VarNamed("e32y");
  Formula f = Pred(PredPrime(), {Add(Count({x}, Eq(x, x)),
                                     Count({x, y}, Atom("E", {x, y})))});
  EXPECT_TRUE(IsFOC1(f));

  // The third formula of Example 3.2 is not in FOC1: the inner P= has free
  // variables x and y.
  Formula inner = TermEq(Count({VarNamed("e32z")}, Atom("E", {x, VarNamed("e32z")})),
                         Count({VarNamed("e32w")}, Atom("E", {y, VarNamed("e32w")})));
  Formula outer = Exists(x, Pred(PredPrime(), {Count({y}, inner)}));
  EXPECT_FALSE(IsFOC1(outer));
}

TEST(NumPred, StandardSemantics) {
  EXPECT_TRUE(PredGe1()->Holds({1}));
  EXPECT_FALSE(PredGe1()->Holds({0}));
  EXPECT_FALSE(PredGe1()->Holds({-3}));
  EXPECT_TRUE(PredEq()->Holds({4, 4}));
  EXPECT_FALSE(PredEq()->Holds({4, 5}));
  EXPECT_TRUE(PredLeq()->Holds({-2, 7}));
  EXPECT_TRUE(PredPrime()->Holds({13}));
  EXPECT_FALSE(PredPrime()->Holds({12}));
  EXPECT_TRUE(PredEven()->Holds({-4}));
  EXPECT_TRUE(PredDivides()->Holds({3, 12}));
  EXPECT_FALSE(PredDivides()->Holds({0, 12}));
  EXPECT_EQ(StandardPredicates().Find("prime")->arity(), 1);
  EXPECT_EQ(StandardPredicates().Find("nope"), nullptr);
}

TEST(Parser, RoundTripFormulas) {
  for (const char* text : {
           "x = y",
           "E(x, y)",
           "!(E(x, y))",
           "(E(x, y) | x = y)",
           "(E(x, y) & !(x = y) & R(x))",
           "exists x. (E(x, y))",
           "forall x. (exists y. (E(x, y)))",
           "true",
           "false",
           "dist(x, y) <= 3",
           "@ge1(#(y). (E(x, y)))",
           "@eq(#(x). (R(x)), (2 + 3))",
           "@prime((#(x). (x = x) + #(x, y). (E(x, y))))",
       }) {
    Result<Formula> parsed = ParseFormula(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    Result<Formula> reparsed = ParseFormula(ToString(*parsed));
    ASSERT_TRUE(reparsed.ok()) << ToString(*parsed);
    EXPECT_TRUE(ExprEquals(parsed->node(), reparsed->node())) << text;
  }
}

TEST(Parser, RoundTripTerms) {
  for (const char* text : {
           "5",
           "-5",
           "(1 + 2)",
           "(2 * #(x). (R(x)))",
           "(#(x). (R(x)) - 4)",
           "#(). (true)",
           "#(x, y). ((E(x, y) | E(y, x)))",
       }) {
    Result<Term> parsed = ParseTerm(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    Result<Term> reparsed = ParseTerm(ToString(*parsed));
    ASSERT_TRUE(reparsed.ok()) << ToString(*parsed);
    EXPECT_TRUE(ExprEquals(parsed->node(), reparsed->node())) << text;
  }
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseFormula("E(x").ok());
  EXPECT_FALSE(ParseFormula("@nosuchpred(1)").ok());
  EXPECT_FALSE(ParseFormula("exists . x = x").ok());
  EXPECT_FALSE(ParseFormula("x =").ok());
  EXPECT_FALSE(ParseTerm("#(x) x = x").ok());
  EXPECT_FALSE(ParseFormula("@eq(1)").ok());  // arity mismatch
  EXPECT_FALSE(ParseFormula("x = y zzz").ok());  // trailing junk
}

TEST(QRank, FqValues) {
  EXPECT_EQ(FqValue(1, 0), 4);
  EXPECT_EQ(FqValue(1, 1), 16);
  EXPECT_EQ(FqValue(2, 1), 512);  // 8^3
  EXPECT_FALSE(FqValue(10, 20).has_value());  // overflows int64
}

TEST(QRank, RankChecks) {
  Var x = VarNamed("qrx"), y = VarNamed("qry");
  // Quantifier rank 1, distance atom under one quantifier.
  Formula f = Exists(y, DistAtMost(x, y, 4));
  EXPECT_TRUE(HasQRankAtMost(f.node(), 1, 1));   // bound allowed: (4)^(1+0)=4
  EXPECT_FALSE(HasQRankAtMost(f.node(), 1, 0));  // quantifier rank too big
  Formula g = Exists(y, DistAtMost(x, y, 5));
  EXPECT_FALSE(HasQRankAtMost(g.node(), 1, 1));  // 5 > 4
  EXPECT_TRUE(HasQRankAtMost(g.node(), 2, 1));   // 5 <= 8^2
}

}  // namespace
}  // namespace focq
