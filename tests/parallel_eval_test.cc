// Parallel-vs-serial equivalence: the determinism contract says every
// num_threads value yields bit-identical results. We check it end to end on
// the three nowhere dense families of bench_scaling (random tree, grid,
// bounded-degree) for cover construction, the ball and sparse-cover term
// engines, the Hanf type-sharing evaluator, the naive reference engine and
// full unary query evaluation.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "focq/core/api.h"
#include "focq/cover/neighborhood_cover.h"
#include "focq/eval/naive_eval.h"
#include "focq/graph/generators.h"
#include "focq/hanf/hanf_eval.h"
#include "focq/hanf/sphere.h"
#include "focq/logic/build.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "test_util.h"

namespace focq {
namespace {

Graph MakeFamilyGraph(int family, std::size_t n, Rng* rng) {
  switch (family) {
    case 0:
      return MakeRandomTree(n, rng);
    case 1: {
      std::size_t side = static_cast<std::size_t>(std::sqrt(double(n)));
      return MakeGrid(side, side);
    }
    default:
      return MakeRandomBoundedDegree(n, 4, rng);
  }
}

// The width-2 FOC1 condition of bench_scaling: "x has at least two
// neighbours of degree exactly 2".
Formula ScalingCondition() {
  Var x = VarNamed("ptx"), y = VarNamed("pty"), z = VarNamed("ptz");
  Formula deg2 = TermEq(Count({z}, Atom("E", {y, z})), Int(2));
  return Ge1(Sub(Count({y}, And(Atom("E", {x, y}), deg2)), Int(1)));
}

class ParallelEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelEquivalenceTest, CoverConstructionIsThreadCountIndependent) {
  int family = GetParam();
  Rng rng(1000 + family);
  Graph g = MakeFamilyGraph(family, 300, &rng);
  for (std::uint32_t r : {1u, 2u}) {
    NeighborhoodCover serial_sparse = SparseCover(g, r);
    NeighborhoodCover serial_exact = ExactBallCover(g, r);
    // 0 = all hardware threads; its grid must match the serial one too.
    for (int threads : {8, 0}) {
      NeighborhoodCover parallel_sparse =
          SparseCover(g, r, {.num_threads = threads});
      EXPECT_EQ(serial_sparse.clusters, parallel_sparse.clusters);
      EXPECT_EQ(serial_sparse.centers, parallel_sparse.centers);
      EXPECT_EQ(serial_sparse.assignment, parallel_sparse.assignment);
      CheckCoverInvariants(g, parallel_sparse);

      NeighborhoodCover parallel_exact =
          ExactBallCover(g, r, {.num_threads = threads});
      EXPECT_EQ(serial_exact.clusters, parallel_exact.clusters);
      EXPECT_EQ(serial_exact.centers, parallel_exact.centers);
      EXPECT_EQ(serial_exact.assignment, parallel_exact.assignment);
      CheckCoverInvariants(g, parallel_exact);
    }
  }
}

TEST_P(ParallelEquivalenceTest, LocalEngineCountsAreThreadCountIndependent) {
  int family = GetParam();
  Rng rng(2000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 400, &rng));
  Formula phi = ScalingCondition();

  EvalOptions serial;
  serial.num_threads = 1;
  Result<CountInt> expected = CountSolutions(phi, a, serial);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {0, 2, 4, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    Result<CountInt> got = CountSolutions(phi, a, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "threads=" << threads;
  }
}

TEST_P(ParallelEquivalenceTest, CoverEngineCountsAreThreadCountIndependent) {
  int family = GetParam();
  Rng rng(3000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 400, &rng));
  Formula phi = ScalingCondition();

  EvalOptions serial;
  serial.term_engine = TermEngine::kSparseCover;
  serial.num_threads = 1;
  Result<CountInt> expected = CountSolutions(phi, a, serial);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {0, 2, 8}) {
    EvalOptions options;
    options.term_engine = TermEngine::kSparseCover;
    options.num_threads = threads;
    Result<CountInt> got = CountSolutions(phi, a, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "threads=" << threads;
  }
}

TEST_P(ParallelEquivalenceTest, NaiveEngineCountsAreThreadCountIndependent) {
  int family = GetParam();
  Rng rng(4000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 64, &rng));
  Formula phi = ScalingCondition();

  NaiveEvaluator eval(a);
  Result<CountInt> expected = eval.CountSolutions(phi);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {0, 2, 4, 8}) {
    Result<CountInt> got = eval.CountSolutions(phi, threads);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "threads=" << threads;
  }
  // And agreement of parallel local vs parallel naive closes the loop.
  EvalOptions local;
  local.num_threads = 4;
  Result<CountInt> local_got = CountSolutions(phi, a, local);
  ASSERT_TRUE(local_got.ok()) << local_got.status().ToString();
  EXPECT_EQ(*local_got, *expected);
}

TEST_P(ParallelEquivalenceTest, SphereTypesAreThreadCountIndependent) {
  int family = GetParam();
  Rng rng(5000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 250, &rng));
  Graph gaifman = BuildGaifmanGraph(a);
  for (std::uint32_t r : {1u, 2u}) {
    SphereTypeAssignment serial = ComputeSphereTypes(a, gaifman, r);
    for (int threads : {8, 0}) {
      SphereTypeAssignment parallel =
          ComputeSphereTypes(a, gaifman, r, {.num_threads = threads});
      // Sequential interning in element order makes the dense ids themselves
      // identical, not just the partition.
      EXPECT_EQ(serial.type_of, parallel.type_of);
      EXPECT_EQ(serial.registry.NumTypes(), parallel.registry.NumTypes());
      EXPECT_EQ(serial.elements_of_type, parallel.elements_of_type);
    }
  }
}

TEST_P(ParallelEquivalenceTest, HanfCountsAreThreadCountIndependent) {
  int family = GetParam();
  Rng rng(6000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 250, &rng));
  Graph gaifman = BuildGaifmanGraph(a);
  Var x = VarNamed("phx");
  Formula phi = test::RandomGuardedKernel({x}, 2, false, 2, &rng, 2);
  std::optional<std::uint32_t> r = SyntacticLocalityRadius(phi);
  ASSERT_TRUE(r.has_value());

  HanfEvaluator serial(a, gaifman);
  Result<CountInt> expected = serial.CountSatisfying(phi, x, *r);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {0, 2, 8}) {
    HanfEvaluator parallel(a, gaifman, {.num_threads = threads});
    Result<CountInt> got = parallel.CountSatisfying(phi, x, *r);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "threads=" << threads;
    EXPECT_EQ(parallel.last_num_types(), serial.last_num_types());
  }
}

TEST_P(ParallelEquivalenceTest, UnaryQueryRowsAreThreadCountIndependent) {
  int family = GetParam();
  Rng rng(7000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 300, &rng));
  Foc1Query q;
  Var x = VarNamed("pqx"), y = VarNamed("pqy");
  q.head_vars = {x};
  q.condition = Ge1(Count({y}, Atom("E", {x, y})));
  q.head_terms = {Count({y}, Atom("E", {x, y}))};

  EvalOptions serial;
  serial.num_threads = 1;
  Result<QueryResult> expected = EvaluateQuery(q, a, serial);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {0, 2, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    Result<QueryResult> got = EvaluateQuery(q, a, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->rows.size(), expected->rows.size());
    for (std::size_t i = 0; i < got->rows.size(); ++i) {
      EXPECT_EQ(got->rows[i].elements, expected->rows[i].elements);
      EXPECT_EQ(got->rows[i].counts, expected->rows[i].counts);
    }
  }
}

TEST_P(ParallelEquivalenceTest, BinaryQueryRowsAreThreadCountIndependent) {
  // Two head variables route through the multi-query candidate verifier,
  // whose per-chunk row/status arrays must match the ParallelFor grid for
  // every thread knob (including 0 = all hardware threads).
  int family = GetParam();
  Rng rng(8000 + family);
  Structure a = EncodeGraph(MakeFamilyGraph(family, 120, &rng));
  Foc1Query q;
  Var x = VarNamed("bqx"), y = VarNamed("bqy"), z = VarNamed("bqz");
  q.head_vars = {x, y};
  // No atom covers both head variables, so candidates come from the full
  // A^2 sweep (well past the 8-chunk grid a one-worker sizing would allow).
  q.condition = And(Ge1(Count({z}, Atom("E", {x, z}))),
                    Ge1(Count({z}, Atom("E", {z, y}))));
  q.head_terms = {Mul(Count({z}, Atom("E", {x, z})),
                      Count({z}, Atom("E", {z, y})))};

  EvalOptions serial;
  serial.num_threads = 1;
  Result<QueryResult> expected = EvaluateQuery(q, a, serial);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  for (int threads : {0, 2, 8}) {
    EvalOptions options;
    options.num_threads = threads;
    Result<QueryResult> got = EvaluateQuery(q, a, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->rows.size(), expected->rows.size());
    for (std::size_t i = 0; i < got->rows.size(); ++i) {
      EXPECT_EQ(got->rows[i].elements, expected->rows[i].elements);
      EXPECT_EQ(got->rows[i].counts, expected->rows[i].counts);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ParallelEquivalenceTest,
                         ::testing::Values(0, 1, 2));

}  // namespace
}  // namespace focq
