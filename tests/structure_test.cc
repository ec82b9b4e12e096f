#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "focq/graph/generators.h"
#include "focq/structure/encode.h"
#include "focq/structure/gaifman.h"
#include "focq/structure/neighborhood.h"
#include "focq/structure/signature.h"
#include "focq/structure/structure.h"
#include "focq/util/rng.h"

namespace focq {
namespace {

TEST(Signature, Basics) {
  Signature sig({{"E", 2}, {"R", 1}, {"Z", 0}});
  EXPECT_EQ(sig.NumSymbols(), 3u);
  EXPECT_EQ(sig.Arity(0), 2);
  EXPECT_EQ(sig.Name(2), "Z");
  EXPECT_EQ(sig.SizeNorm(), 3u);
  EXPECT_TRUE(sig.Find("R").has_value());
  EXPECT_FALSE(sig.Find("Q").has_value());
  EXPECT_EQ(sig.FreshName("E"), "E#1");
  EXPECT_EQ(sig.FreshName("Q"), "Q");
}

TEST(Signature, PrefixRelation) {
  Signature a({{"E", 2}});
  Signature b({{"E", 2}, {"R", 1}});
  EXPECT_TRUE(a.IsPrefixOf(b));
  EXPECT_FALSE(b.IsPrefixOf(a));
  Signature c({{"E", 3}});
  EXPECT_FALSE(c.IsPrefixOf(b));
}

TEST(Structure, TuplesAndLookup) {
  Structure a(Signature({{"E", 2}, {"R", 1}}), 4);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {0, 1});  // duplicate ignored
  a.AddTuple(0, {1, 2});
  a.AddTuple(1, {3});
  EXPECT_EQ(a.relation(0).NumTuples(), 2u);
  EXPECT_TRUE(a.Holds(0, {0, 1}));
  EXPECT_FALSE(a.Holds(0, {1, 0}));
  EXPECT_EQ(a.Order(), 4u);
  EXPECT_EQ(a.SizeNorm(), 7u);
}

TEST(Structure, NullaryRelations) {
  Structure a(Signature({{"Z", 0}}), 2);
  EXPECT_FALSE(a.NullaryHolds(0));
  a.AddTuple(0, {});
  EXPECT_TRUE(a.NullaryHolds(0));
}

TEST(Structure, ExpansionAndReduct) {
  Structure a(Signature({{"E", 2}}), 3);
  a.AddTuple(0, {0, 1});
  SymbolId u = a.AddUnarySymbol("U", {0, 2});
  SymbolId z = a.AddNullarySymbol("Z", true);
  EXPECT_TRUE(a.Holds(u, {2}));
  EXPECT_TRUE(a.NullaryHolds(z));
  Structure reduct = a.ReductTo(1);
  EXPECT_EQ(reduct.signature().NumSymbols(), 1u);
  EXPECT_TRUE(reduct.Holds(0, {0, 1}));
}

TEST(Structure, Induced) {
  Structure a(Signature({{"E", 2}}), 5);
  a.AddTuple(0, {0, 1});
  a.AddTuple(0, {1, 4});
  a.AddTuple(0, {2, 3});
  Structure sub = a.Induced({1, 2, 4});
  EXPECT_EQ(sub.universe_size(), 3u);
  EXPECT_TRUE(sub.Holds(0, {0, 2}));   // 1 -> 0, 4 -> 2
  EXPECT_FALSE(sub.Holds(0, {1, 2}));  // 2-3 tuple dropped (3 missing)
  EXPECT_EQ(sub.relation(0).NumTuples(), 1u);
}

TEST(Structure, DisjointUnion) {
  Structure a(Signature({{"E", 2}}), 2);
  a.AddTuple(0, {0, 1});
  Structure b(Signature({{"E", 2}}), 3);
  b.AddTuple(0, {0, 2});
  Structure u = Structure::DisjointUnion(a, b);
  EXPECT_EQ(u.universe_size(), 5u);
  EXPECT_TRUE(u.Holds(0, {0, 1}));
  EXPECT_TRUE(u.Holds(0, {2, 4}));
  EXPECT_EQ(u.relation(0).NumTuples(), 2u);
}

// Rows of `r` in iteration order, as owned tuples.
std::vector<Tuple> RowsOf(const Relation& r) {
  std::vector<Tuple> rows;
  for (TupleRef t : r.tuples()) rows.push_back(ToTuple(t));
  return rows;
}

// The Relation contract against a reference model: an insertion-ordered
// vector with stable erase plus a set. Ids come from a small pool that
// includes the top of the 32-bit range, so Adds repeat and Removes hit, and
// a packing or hashing shortcut that collides up there shows.
TEST(RelationModel, RandomOperationsMatchOrderedReference) {
  const std::vector<ElemId> pool = {0,          1,          2,
                                    7,          0x7fffffffu, 0x80000000u,
                                    0xfffffffdu, 0xfffffffeu};
  Rng rng(20260417);
  for (int arity = 0; arity <= 3; ++arity) {
    Relation r(arity);
    std::vector<Tuple> order;
    std::set<Tuple> members;
    for (int step = 0; step < 4000; ++step) {
      Tuple t(arity);
      for (ElemId& e : t) e = pool[rng.NextBelow(pool.size())];
      const bool present = members.contains(t);
      switch (rng.NextBelow(3)) {
        case 0:
          ASSERT_EQ(r.Add(t), !present)
              << "arity " << arity << " step " << step;
          if (!present) {
            order.push_back(t);
            members.insert(t);
          }
          break;
        case 1:
          ASSERT_EQ(r.Remove(t), present)
              << "arity " << arity << " step " << step;
          if (present) {
            order.erase(std::find(order.begin(), order.end(), t));
            members.erase(t);
          }
          break;
        default:
          ASSERT_EQ(r.Contains(t), present)
              << "arity " << arity << " step " << step;
      }
      ASSERT_EQ(r.NumTuples(), order.size())
          << "arity " << arity << " step " << step;
      if (step % 97 == 0) {
        ASSERT_EQ(RowsOf(r), order) << "arity " << arity << " step " << step;
      }
    }
    EXPECT_EQ(RowsOf(r), order) << "arity " << arity;
    for (const Tuple& t : order) EXPECT_TRUE(r.Contains(t));
  }
}

TEST(RelationModel, GrowthKeepsEveryRowFindable) {
  constexpr ElemId kRows = 100000;
  Relation r(2);
  // Distinct rows spread over the whole id range; the absent probes swap the
  // two columns, which no stored row has.
  auto row = [](ElemId i) {
    return Tuple{i * 42949u, 0xfffffffeu - i};
  };
  for (ElemId i = 0; i < kRows; ++i) ASSERT_TRUE(r.Add(row(i))) << i;
  EXPECT_EQ(r.NumTuples(), kRows);
  std::size_t found = 0;
  std::size_t false_hits = 0;
  for (ElemId i = 0; i < kRows; ++i) {
    Tuple t = row(i);
    found += r.Contains(t) ? 1 : 0;
    std::swap(t[0], t[1]);
    false_hits += r.Contains(t) ? 1 : 0;
  }
  EXPECT_EQ(found, kRows);
  EXPECT_EQ(false_hits, 0u);
  EXPECT_EQ(ToTuple(r.tuples()[kRows - 1]), row(kRows - 1));
}

// A copy is independent of its source: PlanExecutor mutates its per-statement
// copy of the shared structure.
TEST(RelationModel, CopyIsIndependentOfTheOriginal) {
  Structure a(Signature({{"E", 2}, {"R", 1}}), 6);
  for (ElemId u = 0; u + 1 < 6; ++u) a.AddTuple(0, {u, u + 1});
  a.AddTuple(1, {3});
  const std::vector<Tuple> edges = RowsOf(a.relation(0));
  const std::vector<Tuple> reds = RowsOf(a.relation(1));

  Structure copy = a;
  EXPECT_TRUE(copy.InsertTuple(0, {5, 0}));
  EXPECT_TRUE(copy.DeleteTuple(0, {1, 2}));
  EXPECT_TRUE(copy.InsertTuple(1, {4}));
  SymbolId marker = copy.AddUnarySymbol("M", {0, 2});
  EXPECT_TRUE(copy.Holds(0, {5, 0}));
  EXPECT_FALSE(copy.Holds(0, {1, 2}));
  EXPECT_TRUE(copy.Holds(marker, {2}));

  EXPECT_EQ(a.signature().NumSymbols(), 2u);
  EXPECT_EQ(RowsOf(a.relation(0)), edges);
  EXPECT_EQ(RowsOf(a.relation(1)), reds);
  EXPECT_FALSE(a.Holds(0, {5, 0}));
  EXPECT_TRUE(a.Holds(0, {1, 2}));
  EXPECT_FALSE(a.Holds(1, {4}));
}

TEST(Gaifman, EdgesFromTuples) {
  Structure a(Signature({{"T", 3}}), 5);
  a.AddTuple(0, {0, 1, 2});
  a.AddTuple(0, {3, 3, 3});  // no edges from repeated elements
  Graph g = BuildGaifmanGraph(a);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_EQ(g.Degree(4), 0u);
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Gaifman, GraphEncodingRoundTrip) {
  Graph g = MakeCycle(7);
  Structure a = EncodeGraph(g);
  Graph back = BuildGaifmanGraph(a);
  EXPECT_EQ(back.num_edges(), g.num_edges());
  for (auto [u, v] : g.Edges()) EXPECT_TRUE(back.HasEdge(u, v));
}

TEST(Neighborhood, BallSubstructure) {
  Structure a = EncodeGraph(MakePath(10));
  Graph gaifman = BuildGaifmanGraph(a);
  SubstructureView view = NeighborhoodSubstructure(a, gaifman, {5}, 2);
  EXPECT_EQ(view.structure.universe_size(), 5u);  // 3,4,5,6,7
  EXPECT_EQ(view.original_ids, (std::vector<ElemId>{3, 4, 5, 6, 7}));
  EXPECT_EQ(view.ToLocal(5), 2u);
  // Edges inside the ball survive, with renumbering.
  EXPECT_TRUE(view.structure.Holds(0, {0, 1}));  // 3-4
  EXPECT_TRUE(view.structure.Holds(0, {1, 0}));
}

TEST(Encode, StringStructure) {
  Structure s = EncodeString("abca", "abc");
  EXPECT_EQ(s.universe_size(), 4u);
  SymbolId order = *s.signature().Find("<=");
  SymbolId pa = *s.signature().Find("P_a");
  EXPECT_TRUE(s.Holds(order, {0, 3}));
  EXPECT_TRUE(s.Holds(order, {2, 2}));
  EXPECT_FALSE(s.Holds(order, {3, 0}));
  EXPECT_TRUE(s.Holds(pa, {0}));
  EXPECT_TRUE(s.Holds(pa, {3}));
  EXPECT_FALSE(s.Holds(pa, {1}));
  // The Gaifman graph of a string with a linear order is a clique.
  Graph g = BuildGaifmanGraph(s);
  EXPECT_EQ(g.num_edges(), 6u);
}

TEST(Encode, Digraph) {
  Structure d = EncodeDigraph(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(d.Holds(0, {0, 1}));
  EXPECT_FALSE(d.Holds(0, {1, 0}));
}

}  // namespace
}  // namespace focq
