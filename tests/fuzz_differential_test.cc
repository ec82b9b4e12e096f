// The fuzzing harness tested as a library: generator well-formedness, the
// differential driver on real engine runs, catch-and-shrink of an injected
// miscount, and the .case round trip. tools/focq_fuzz is a thin CLI over
// exactly these entry points.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "focq/logic/fragment.h"
#include "focq/logic/printer.h"
#include "focq/structure/io.h"
#include "focq/testing/case_io.h"
#include "focq/testing/differential.h"
#include "focq/testing/shrink.h"

namespace focq {
namespace {

using fuzz::CaseMode;
using fuzz::DiffCase;
using fuzz::DiffConfig;
using fuzz::DiffFailure;
using fuzz::FormulaGenOptions;
using fuzz::FormulaGenerator;
using fuzz::StructureGenOptions;

TEST(FormulaGen, ProducesWellFormedFOC1) {
  Signature sig({{"E", 2}, {"C0", 1}});
  Rng rng(11);
  FormulaGenOptions options;
  for (int i = 0; i < 60; ++i) {
    FormulaGenerator gen(sig, options, &rng);
    Formula phi = gen.GenerateFormula();
    EXPECT_TRUE(IsFOC1(phi)) << ToString(phi);
    EXPECT_TRUE(CheckSymbols(phi, sig).ok()) << ToString(phi);
    // Free variables come from the documented pool.
    for (Var v : FreeVars(phi)) {
      EXPECT_TRUE(v == VarNamed("fz0") || v == VarNamed("fz1"))
          << ToString(phi);
    }
    Term t = gen.GenerateGroundTerm();
    EXPECT_TRUE(FreeVars(t).empty()) << ToString(t);
    EXPECT_TRUE(IsFOC1(t)) << ToString(t);
  }
}

TEST(FormulaGen, SentencesHaveNoFreeVariables) {
  Signature sig({{"E", 2}});
  Rng rng(5);
  FormulaGenOptions options;
  for (int i = 0; i < 40; ++i) {
    FormulaGenerator gen(sig, options, &rng);
    Formula phi = gen.GenerateFormula({});
    EXPECT_TRUE(FreeVars(phi).empty()) << ToString(phi);
  }
}

TEST(FormulaGen, DeterministicInSeed) {
  Signature sig({{"E", 2}});
  FormulaGenOptions options;
  Rng a(99), b(99);
  FormulaGenerator ga(sig, options, &a), gb(sig, options, &b);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(ToString(ga.GenerateFormula()), ToString(gb.GenerateFormula()));
  }
}

TEST(StructureGen, RespectsUniverseBoundsAndSeed) {
  StructureGenOptions options;
  options.min_universe = 3;
  options.max_universe = 15;
  Rng rng(21);
  for (int i = 0; i < 40; ++i) {
    fuzz::StructureClass cls;
    Structure a = fuzz::GenerateStructure(options, &rng, &cls);
    // Grids may round the universe up to a full rows x cols rectangle.
    EXPECT_GE(a.Order(), options.min_universe);
    EXPECT_LE(a.Order(), options.max_universe + 6) << StructureClassName(cls);
    EXPECT_TRUE(a.signature().Find("E").has_value());
  }
  Rng r1(77), r2(77);
  EXPECT_EQ(WriteStructure(fuzz::GenerateStructure(options, &r1)),
            WriteStructure(fuzz::GenerateStructure(options, &r2)));
}

TEST(StructureGen, EveryClassGenerates) {
  for (fuzz::StructureClass cls : fuzz::AllStructureClasses()) {
    StructureGenOptions options;
    options.cls = cls;
    options.min_universe = 4;
    options.max_universe = 10;
    Rng rng(3);
    Structure a = fuzz::GenerateStructure(options, &rng);
    EXPECT_GE(a.Order(), 4u) << StructureClassName(cls);
    // Round-trips through the class name table.
    EXPECT_EQ(fuzz::ParseStructureClass(fuzz::StructureClassName(cls)), cls);
  }
}

TEST(Differential, RandomCasesAgreeWithTheOracle) {
  StructureGenOptions structure_options;
  structure_options.max_universe = 14;
  FormulaGenOptions formula_options;
  DiffConfig config;
  Rng rng(2024);
  for (int i = 0; i < 60; ++i) {
    DiffCase c = fuzz::GenerateCase(structure_options, formula_options, &rng);
    std::optional<DiffFailure> failure = fuzz::RunCase(c, config);
    EXPECT_FALSE(failure.has_value())
        << "case " << i << ":\n" << failure->description;
    if (failure.has_value()) break;
  }
}

TEST(Differential, InjectedMiscountIsCaughtAndShrunkSmall) {
  DiffConfig faulty;
  faulty.subject = fuzz::MiscountingSubject;
  StructureGenOptions structure_options;
  structure_options.min_universe = 6;
  structure_options.max_universe = 16;
  FormulaGenOptions formula_options;

  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 100 && !caught; ++seed) {
    Rng rng(seed);
    DiffCase c = fuzz::GenerateCase(structure_options, formula_options, &rng);
    std::optional<DiffFailure> failure = fuzz::RunCase(c, faulty);
    if (!failure.has_value()) continue;
    caught = true;

    auto still_fails = [&](const DiffCase& cs) {
      return fuzz::RunCase(cs, faulty).has_value();
    };
    fuzz::ShrinkStats stats;
    DiffCase shrunk = fuzz::Shrink(failure->c, still_fails, {}, &stats);
    EXPECT_LE(shrunk.structure.Order(), 10u);
    EXPECT_GT(stats.evaluations, 0u);
    EXPECT_TRUE(still_fails(shrunk));
    // The same case must pass under the real engines: the failure is the
    // injected bug, not a latent engine disagreement.
    EXPECT_FALSE(fuzz::RunCase(shrunk, DiffConfig{}).has_value());
  }
  EXPECT_TRUE(caught) << "no seed in [1,100] triggered the injected bug";
}

TEST(Differential, ShrinkIsDeterministic) {
  DiffConfig faulty;
  faulty.subject = fuzz::MiscountingSubject;
  StructureGenOptions structure_options;
  structure_options.min_universe = 6;
  structure_options.max_universe = 16;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    DiffCase c =
        fuzz::GenerateCase(structure_options, FormulaGenOptions{}, &rng);
    if (!fuzz::RunCase(c, faulty).has_value()) continue;
    auto still_fails = [&](const DiffCase& cs) {
      return fuzz::RunCase(cs, faulty).has_value();
    };
    DiffCase s1 = fuzz::Shrink(c, still_fails);
    DiffCase s2 = fuzz::Shrink(c, still_fails);
    EXPECT_EQ(fuzz::WriteCase(s1), fuzz::WriteCase(s2));
    return;
  }
  FAIL() << "no failing case found to shrink";
}

// A query case's head order must not depend on what the process interned
// first: the names here are interned in reverse order.
TEST(DiffCaseTest, QueryHeadVariablesAreOrderedByName) {
  Var b = VarNamed("dq_head_b");
  Var a = VarNamed("dq_head_a");
  ASSERT_LT(b, a);
  DiffCase c;
  c.mode = CaseMode::kQuery;
  c.formula = Atom("E", {b, a});
  EXPECT_EQ(c.ToQuery().head_vars, (std::vector<Var>{a, b}));
}

TEST(CaseIo, RoundTripsEveryMode) {
  StructureGenOptions structure_options;
  structure_options.max_universe = 10;
  FormulaGenOptions formula_options;
  Rng rng(404);
  std::set<CaseMode> seen;
  for (int i = 0; i < 40; ++i) {
    DiffCase c = fuzz::GenerateCase(structure_options, formula_options, &rng);
    seen.insert(c.mode);
    Result<DiffCase> back = fuzz::ReadCase(fuzz::WriteCase(c));
    ASSERT_TRUE(back.ok()) << back.status().ToString() << "\n"
                           << fuzz::WriteCase(c);
    EXPECT_EQ(back->mode, c.mode);
    if (c.mode == CaseMode::kTerm) {
      EXPECT_EQ(ToString(back->term), ToString(c.term));
    } else {
      EXPECT_EQ(ToString(back->formula), ToString(c.formula));
    }
    ASSERT_EQ(back->head_terms.size(), c.head_terms.size());
    for (std::size_t j = 0; j < c.head_terms.size(); ++j) {
      EXPECT_EQ(ToString(back->head_terms[j]), ToString(c.head_terms[j]));
    }
    EXPECT_EQ(WriteStructure(back->structure), WriteStructure(c.structure));
  }
  EXPECT_EQ(seen.size(), 4u) << "40 draws should hit all four modes";
}

TEST(CaseIo, RejectsMalformedInput) {
  EXPECT_FALSE(fuzz::ReadCase("").ok());
  EXPECT_FALSE(fuzz::ReadCase("mode bogus\nformula true\nstructure\n"
                              "universe 1\n").ok());
  EXPECT_FALSE(fuzz::ReadCase("mode count\nformula ((\nstructure\n"
                              "universe 1\n").ok());
  EXPECT_FALSE(fuzz::ReadCase("mode count\nformula true\n").ok());
}

TEST(CaseIo, SnippetMentionsTheCase) {
  Rng rng(17);
  DiffCase c = fuzz::GenerateCase(StructureGenOptions{}, FormulaGenOptions{},
                                  &rng);
  std::string snippet = fuzz::CaseToCppSnippet(c);
  EXPECT_NE(snippet.find("Structure"), std::string::npos);
  EXPECT_NE(snippet.find("Engine::kNaive"), std::string::npos);
  EXPECT_NE(snippet.find("Engine::kLocal"), std::string::npos);
}

TEST(Shrink, DropPrimitives) {
  Structure a(Signature({{"E", 2}, {"C", 1}}), 4);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 0});
  a.AddTuple(0, {2, 3});
  a.AddTuple(1, {3});

  Structure fewer = fuzz::DropTuple(a, 0, 2);  // drop (2,3)
  EXPECT_EQ(fewer.Order(), 4u);
  EXPECT_EQ(fewer.relation(0).NumTuples(), 2u);
  EXPECT_TRUE(fewer.Holds(0, {0, 1}));
  EXPECT_FALSE(fewer.Holds(0, {2, 3}));
  EXPECT_TRUE(fewer.Holds(1, {3}));

  Structure smaller = fuzz::DropVertex(a, 0);
  EXPECT_EQ(smaller.Order(), 3u);
  // Tuples not mentioning the dropped vertex survive with renumbering.
  EXPECT_EQ(smaller.relation(0).NumTuples(), 1u);
  EXPECT_EQ(smaller.relation(1).NumTuples(), 1u);
}

}  // namespace
}  // namespace focq
