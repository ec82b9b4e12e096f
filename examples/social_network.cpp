// Example 5.4 flavour: a coloured directed graph viewed as a tiny social
// network. Red = flagged accounts, Blue = bots, Green = verified users;
// E(x, y) = "x follows y". Demonstrates counting terms over one free
// variable, numerical predicate sugar, and the full query form.
//
// Run: ./example_social_network
#include <cstdio>

#include "focq/core/api.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"
#include "focq/structure/encode.h"
#include "focq/util/rng.h"

int main() {
  using namespace focq;

  // A synthetic follower graph: 300 accounts, preferential-attachment-ish.
  const std::size_t n = 300;
  Rng rng(7);
  std::vector<std::pair<ElemId, ElemId>> follows;
  for (ElemId v = 1; v < n; ++v) {
    std::size_t fanout = 1 + rng.NextBelow(4);
    for (std::size_t f = 0; f < fanout; ++f) {
      ElemId target = static_cast<ElemId>(rng.NextBelow(v));
      follows.emplace_back(v, target);
      // Some follows are mutual, so directed triangles exist.
      if (rng.NextBool(0.3)) follows.emplace_back(target, v);
    }
  }
  Structure net = EncodeDigraph(n, follows);
  std::vector<ElemId> red, blue, green;
  for (ElemId v = 0; v < n; ++v) {
    if (rng.NextBool(0.05)) red.push_back(v);
    if (rng.NextBool(0.15)) blue.push_back(v);
    if (rng.NextBool(0.10)) green.push_back(v);
  }
  net.AddUnarySymbol("R", red);
  net.AddUnarySymbol("B", blue);
  net.AddUnarySymbol("G", green);
  std::printf("network: %zu accounts, %zu follow edges, %zu flagged, "
              "%zu bots, %zu verified\n",
              n, follows.size(), red.size(), blue.size(), green.size());

  EvalOptions local;
  Var x = VarNamed("x"), y = VarNamed("y"), z = VarNamed("z");

  // The paper's ground term t_R: total number of red nodes.
  Term flagged = Count({x}, Atom("R", {x}));
  std::printf("flagged accounts (ground term): %lld\n",
              static_cast<long long>(*EvaluateGroundTerm(flagged, net, local)));

  // t_B(x): number of bot accounts x follows.
  Term bots_followed = Count({y}, And(Atom("E", {x, y}), Atom("B", {y})));

  // "Suspicious": follows more bots than verified accounts.
  Term verified_followed = Count({y}, And(Atom("E", {x, y}), Atom("G", {y})));
  Formula suspicious = Not(TermLeq(bots_followed, verified_followed));
  std::printf("suspicious accounts (follow more bots than verified): %lld\n",
              static_cast<long long>(*CountSolutions(suspicious, net, local)));

  // The paper's t_Delta(x): directed triangles through x -- note this counts
  // *pairs* (y, z), so each directed triangle contributes once per role.
  Term triangles = Count(
      {y, z}, And({Atom("E", {x, y}), Atom("E", {y, z}), Atom("E", {z, x})}));
  Formula in_triangle = Ge1(triangles);
  std::printf("accounts on a directed triangle: %lld\n",
              static_cast<long long>(*CountSolutions(in_triangle, net, local)));

  // Full query: every verified account with its follower count (in-degree)
  // and the number of flagged accounts it follows.
  Foc1Query q;
  q.head_vars = {x};
  q.condition = Atom("G", {x});
  q.head_terms = {Count({y}, Atom("E", {y, x})),
                  Count({y}, And(Atom("E", {x, y}), Atom("R", {y})))};
  Result<QueryResult> rows = EvaluateQuery(q, net, local);
  std::printf("verified accounts: %zu; first 5 (id, followers, flagged "
              "followees):\n",
              rows->rows.size());
  for (std::size_t i = 0; i < 5 && i < rows->rows.size(); ++i) {
    std::printf("  %3u  %3lld  %lld\n", rows->rows[i].elements[0],
                static_cast<long long>(rows->rows[i].counts[0]),
                static_cast<long long>(rows->rows[i].counts[1]));
  }

  // Cross-check one result against the naive reference engine.
  EvalOptions naive;
  naive.engine = Engine::kNaive;
  bool agree = *CountSolutions(suspicious, net, local) ==
               *CountSolutions(suspicious, net, naive);
  std::printf("local engine agrees with reference: %s\n",
              agree ? "yes" : "NO");
  return 0;
}
