#include <gtest/gtest.h>

#include "focq/structure/incidence.h"
#include "focq/structure/io.h"

namespace focq {
namespace {

constexpr const char* kSample = R"(
# a small database
universe 5
relation E 2
0 1
1 2   # trailing comment
relation R 1
3
relation Z 0
()
)";

TEST(StructureIo, ReadBasics) {
  Result<Structure> a = ReadStructure(kSample);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->universe_size(), 5u);
  EXPECT_EQ(a->signature().NumSymbols(), 3u);
  EXPECT_TRUE(a->Holds(*a->signature().Find("E"), {0, 1}));
  EXPECT_TRUE(a->Holds(*a->signature().Find("E"), {1, 2}));
  EXPECT_FALSE(a->Holds(*a->signature().Find("E"), {1, 0}));
  EXPECT_TRUE(a->Holds(*a->signature().Find("R"), {3}));
  EXPECT_TRUE(a->NullaryHolds(*a->signature().Find("Z")));
}

TEST(StructureIo, RoundTrip) {
  Result<Structure> a = ReadStructure(kSample);
  ASSERT_TRUE(a.ok());
  std::string serialized = WriteStructure(*a);
  Result<Structure> b = ReadStructure(serialized);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(WriteStructure(*b), serialized);
  EXPECT_EQ(b->universe_size(), a->universe_size());
  for (SymbolId id = 0; id < a->signature().NumSymbols(); ++id) {
    EXPECT_EQ(b->relation(id).NumTuples(), a->relation(id).NumTuples());
  }
}

TEST(StructureIo, Errors) {
  EXPECT_FALSE(ReadStructure("relation E 2\n0 1\n").ok());  // no universe
  EXPECT_FALSE(ReadStructure("universe 0\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nuniverse 3\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nrelation E 2\n0 7\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nrelation E 2\n0\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\n0 1\n").ok());  // tuple w/o relation
  EXPECT_FALSE(
      ReadStructure("universe 3\nrelation E 2\nrelation E 2\n").ok());
  EXPECT_FALSE(ReadStructure("universe 3\nrelation E 2\n()\n").ok());
  // Every number is parsed strictly, a line with extra tokens is an error,
  // and the universe must fit 32-bit element ids.
  for (const char* bad : {
           "universe -1\n",
           "universe 5000000000\n",
           "universe 4294967296\n",
           "universe 3abc\n",
           "universe 3 4\n",
           "universe +3\n",
           "universe 3\nrelation E 2 junk\n",
           "universe 3\nrelation E -2\n",
           "universe 3\nrelation E 2\n0 1 junk\n",
           "universe 3\nrelation E 2\n0 1x\n",
           "universe 3\nrelation E 2\n0 -1\n",
           "universe 3\nrelation Z 0\n() 1\n",
       }) {
    Result<Structure> a = ReadStructure(bad);
    ASSERT_FALSE(a.ok()) << bad;
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(a.status().message().rfind("line ", 0), 0u)
        << bad << " -> " << a.status().ToString();
  }
  Result<Structure> overflow =
      ReadStructure("universe 3\nrelation E 2\n0 99999999999999999999\n");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().ToString(),
            "INVALID_ARGUMENT: line 3: bad element id '99999999999999999999'");
  // The largest universe and the largest element id still load.
  Result<Structure> top =
      ReadStructure("universe 4294967295\nrelation E 2\n4294967294 0\n");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_TRUE(top->Holds(0, {4294967294u, 0}));
}

TEST(StructureIo, EdgeList) {
  Result<Structure> a = ReadEdgeList("0 1\n1 2\n# comment\n2 0\n");
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->universe_size(), 3u);
  SymbolId e = *a->signature().Find("E");
  EXPECT_TRUE(a->Holds(e, {0, 1}));
  EXPECT_TRUE(a->Holds(e, {1, 0}));  // symmetric encoding
  EXPECT_EQ(a->relation(e).NumTuples(), 6u);
  EXPECT_FALSE(ReadEdgeList("0 -1\n").ok());
  EXPECT_FALSE(ReadEdgeList("").ok());
  for (const char* bad : {"0 1 junk\n", "0 1\n1 2x\n", "3\n", "+1 2\n",
                          "0 4294967295\n", "0 99999999999999999999\n"}) {
    Result<Structure> b = ReadEdgeList(bad);
    ASSERT_FALSE(b.ok()) << bad;
    EXPECT_EQ(b.status().message().rfind("edge list line ", 0), 0u)
        << bad << " -> " << b.status().ToString();
  }
  EXPECT_EQ(ReadEdgeList("0 1\n1 2x\n").status().ToString(),
            "INVALID_ARGUMENT: edge list line 2: bad id '2x' (expected 0 .. "
            "4294967294)");
  Result<Structure> padded = ReadEdgeList("0 1\n", /*min_vertices=*/10);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded->universe_size(), 10u);
}

TEST(Incidence, FastInducedMatchesSlow) {
  Result<Structure> a = ReadStructure(kSample);
  ASSERT_TRUE(a.ok());
  TupleIncidence incidence(*a);
  std::vector<ElemId> members = {0, 1, 3};
  SubstructureView fast = InducedViewFast(incidence, members);
  SubstructureView slow = InducedView(*a, members);
  EXPECT_EQ(WriteStructure(fast.structure), WriteStructure(slow.structure));
  // Nullary relations survive the fast path even without incidence.
  EXPECT_TRUE(fast.structure.NullaryHolds(*a->signature().Find("Z")));
}

TEST(Incidence, TupleListedOncePerElement) {
  Structure a(Signature({{"T", 3}}), 3);
  a.AddTuple(0, {1, 1, 2});
  TupleIncidence incidence(a);
  EXPECT_EQ(incidence.Of(1).size(), 1u);  // despite two occurrences
  EXPECT_EQ(incidence.Of(2).size(), 1u);
  EXPECT_TRUE(incidence.Of(0).empty());
}

}  // namespace
}  // namespace focq
