#include "focq/locality/decompose.h"

#include <algorithm>
#include <functional>
#include <set>
#include <unordered_map>

#include "focq/graph/bfs.h"
#include "focq/logic/build.h"
#include "focq/logic/printer.h"

namespace focq {
namespace {

ExprRef MakeNode(Expr e) { return std::make_shared<const Expr>(std::move(e)); }

/// Anchoring of a variable: which pattern component its value provably lies
/// near, and how far from that component's free variables it can stray.
struct Anchor {
  int component = -1;
  std::uint32_t slack = 0;
};

using AnchorMap = std::unordered_map<Var, Anchor>;

/// Purifies `e` under delta_{G, sep}: replaces every leaf constraint whose
/// anchored variables span two components by `false` when the separation
/// proves it false; Unsupported if a cross constraint cannot be refuted.
Result<ExprRef> Purify(const ExprRef& e, const AnchorMap& anchors,
                       std::uint32_t sep) {
  switch (e->kind) {
    case ExprKind::kTrue:
    case ExprKind::kFalse:
      return e;
    case ExprKind::kEqual:
    case ExprKind::kAtom:
    case ExprKind::kDistAtom: {
      // The maximum Gaifman distance compatible with the leaf holding:
      // 0 for equality, 1 between tuple elements of a relational atom,
      // d for dist(x,y) <= d.
      std::uint32_t leaf_reach = 0;
      if (e->kind == ExprKind::kAtom) leaf_reach = 1;
      if (e->kind == ExprKind::kDistAtom) leaf_reach = e->dist_bound;
      for (std::size_t i = 0; i < e->vars.size(); ++i) {
        auto ai = anchors.find(e->vars[i]);
        FOCQ_CHECK(ai != anchors.end());
        for (std::size_t j = i + 1; j < e->vars.size(); ++j) {
          auto aj = anchors.find(e->vars[j]);
          FOCQ_CHECK(aj != anchors.end());
          if (ai->second.component == aj->second.component) continue;
          if (SaturatedRadius(std::uint64_t{ai->second.slack} + leaf_reach +
                              aj->second.slack) <= sep) {
            return False().ref();  // contradicts the component separation
          }
          return Status::Unsupported(
              "cross-component constraint not refutable at separation " +
              std::to_string(sep) + ": " + ToString(*e));
        }
      }
      return e;
    }
    case ExprKind::kNot:
    case ExprKind::kOr:
    case ExprKind::kAnd: {
      Expr copy = *e;
      for (ExprRef& c : copy.children) {
        Result<ExprRef> p = Purify(c, anchors, sep);
        if (!p.ok()) return p;
        c = *p;
      }
      return MakeNode(std::move(copy));
    }
    case ExprKind::kExists:
    case ExprKind::kForall: {
      BallGuard guard = DetectGuard(*e);
      if (!guard.found) {
        return Status::Unsupported("unguarded quantifier in kernel: " +
                                   ToString(*e));
      }
      auto anchor_it = anchors.find(guard.anchor);
      FOCQ_CHECK(anchor_it != anchors.end());
      AnchorMap extended = anchors;
      extended[e->vars[0]] = Anchor{
          anchor_it->second.component,
          SaturatedRadius(std::uint64_t{anchor_it->second.slack} + guard.d)};
      Expr copy = *e;
      Result<ExprRef> p = Purify(copy.children[0], extended, sep);
      if (!p.ok()) return p;
      copy.children[0] = *p;
      return MakeNode(std::move(copy));
    }
    default:
      return Status::Unsupported("non-FO+ construct in kernel: " +
                                 ToString(*e));
  }
}

}  // namespace

ExprRef FoldConstants(const ExprRef& e) {
  switch (e->kind) {
    case ExprKind::kNot: {
      ExprRef c = FoldConstants(e->children[0]);
      if (c->kind == ExprKind::kTrue) return False().ref();
      if (c->kind == ExprKind::kFalse) return True().ref();
      if (c == e->children[0]) return e;
      Expr copy = *e;
      copy.children[0] = std::move(c);
      return MakeNode(std::move(copy));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      bool is_and = e->kind == ExprKind::kAnd;
      std::vector<ExprRef> kept;
      for (const ExprRef& child : e->children) {
        ExprRef c = FoldConstants(child);
        if (c->kind == (is_and ? ExprKind::kTrue : ExprKind::kFalse)) continue;
        if (c->kind == (is_and ? ExprKind::kFalse : ExprKind::kTrue)) {
          return is_and ? False().ref() : True().ref();
        }
        kept.push_back(std::move(c));
      }
      if (kept.empty()) return is_and ? True().ref() : False().ref();
      if (kept.size() == 1) return kept.front();
      Expr copy = *e;
      copy.children = std::move(kept);
      return MakeNode(std::move(copy));
    }
    case ExprKind::kExists:
    case ExprKind::kForall: {
      ExprRef c = FoldConstants(e->children[0]);
      // exists y false == false; forall y true == true. (Universes are
      // non-empty, so exists y true == true and forall y false == false.)
      if (c->kind == ExprKind::kTrue || c->kind == ExprKind::kFalse) return c;
      if (c == e->children[0]) return e;
      Expr copy = *e;
      copy.children[0] = std::move(c);
      return MakeNode(std::move(copy));
    }
    default:
      return e;
  }
}

namespace {

/// A component-pure piece of the kernel's Boolean skeleton.
struct Piece {
  ExprRef formula;
  int component = -1;  // pattern component id of its anchored free variables
};

/// Skeleton node: the Boolean structure of the kernel over piece leaves.
struct Skeleton {
  enum class Kind { kPiece, kConst, kNot, kAnd, kOr };
  Kind kind;
  int piece = -1;       // kPiece
  bool value = false;   // kConst
  std::vector<Skeleton> children;
};

/// Components of the anchored free variables of `e`, with bound variables
/// tracked through guards (they share their anchor's component).
void CollectComponents(const Expr& e, const AnchorMap& anchors,
                       std::set<int>* out) {
  switch (e.kind) {
    case ExprKind::kEqual:
    case ExprKind::kAtom:
    case ExprKind::kDistAtom:
      for (Var v : e.vars) {
        auto it = anchors.find(v);
        FOCQ_CHECK(it != anchors.end());
        out->insert(it->second.component);
      }
      return;
    case ExprKind::kExists:
    case ExprKind::kForall: {
      BallGuard guard = DetectGuard(e);
      FOCQ_CHECK(guard.found);  // purification guarantees guarded kernels
      auto it = anchors.find(guard.anchor);
      FOCQ_CHECK(it != anchors.end());
      AnchorMap extended = anchors;
      extended[e.vars[0]] = Anchor{it->second.component, 0};
      for (const ExprRef& c : e.children) {
        CollectComponents(*c, extended, out);
      }
      return;
    }
    default:
      for (const ExprRef& c : e.children) CollectComponents(*c, anchors, out);
      return;
  }
}

Result<Skeleton> BuildSkeleton(const ExprRef& e, const AnchorMap& anchors,
                               std::vector<Piece>* pieces) {
  if (e->kind == ExprKind::kTrue || e->kind == ExprKind::kFalse) {
    Skeleton s;
    s.kind = Skeleton::Kind::kConst;
    s.value = e->kind == ExprKind::kTrue;
    return s;
  }
  std::set<int> comps;
  CollectComponents(*e, anchors, &comps);
  if (comps.size() <= 1) {
    // A component-pure piece. Nullary marker atoms mention no variables at
    // all; they are component-independent (tagged -1, grouped with V').
    int component = comps.empty() ? -1 : *comps.begin();
    for (std::size_t i = 0; i < pieces->size(); ++i) {
      if ((*pieces)[i].component == component &&
          ExprEquals(*(*pieces)[i].formula, *e)) {
        Skeleton s;
        s.kind = Skeleton::Kind::kPiece;
        s.piece = static_cast<int>(i);
        return s;
      }
    }
    pieces->push_back(Piece{e, component});
    Skeleton s;
    s.kind = Skeleton::Kind::kPiece;
    s.piece = static_cast<int>(pieces->size() - 1);
    return s;
  }
  // Mixed: must be a Boolean connective we can recurse through.
  switch (e->kind) {
    case ExprKind::kNot:
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      Skeleton s;
      s.kind = e->kind == ExprKind::kNot   ? Skeleton::Kind::kNot
               : e->kind == ExprKind::kAnd ? Skeleton::Kind::kAnd
                                           : Skeleton::Kind::kOr;
      for (const ExprRef& c : e->children) {
        Result<Skeleton> child = BuildSkeleton(c, anchors, pieces);
        if (!child.ok()) return child;
        s.children.push_back(std::move(*child));
      }
      return s;
    }
    default:
      return Status::Unsupported(
          "kernel piece spans several pattern components under a "
          "non-Boolean construct: " +
          ToString(*e));
  }
}

// Three-valued skeleton evaluation under a partial assignment:
// -1 = undetermined, 0 = false, 1 = true.
int EvalSkeletonPartial(const Skeleton& s, const std::vector<int>& assignment) {
  switch (s.kind) {
    case Skeleton::Kind::kPiece:
      return assignment[s.piece];
    case Skeleton::Kind::kConst:
      return s.value ? 1 : 0;
    case Skeleton::Kind::kNot: {
      int v = EvalSkeletonPartial(s.children[0], assignment);
      return v < 0 ? -1 : 1 - v;
    }
    case Skeleton::Kind::kAnd: {
      int result = 1;
      for (const Skeleton& c : s.children) {
        int v = EvalSkeletonPartial(c, assignment);
        if (v == 0) return 0;
        if (v < 0) result = -1;
      }
      return result;
    }
    case Skeleton::Kind::kOr: {
      int result = 0;
      for (const Skeleton& c : s.children) {
        int v = EvalSkeletonPartial(c, assignment);
        if (v == 1) return 1;
        if (v < 0) result = -1;
      }
      return result;
    }
  }
  return -1;
}

// Branch-and-prune Shannon expansion: enumerates partial assignments that
// make the skeleton true, pruning whole subtrees as soon as the skeleton is
// determined. The emitted leaves (vectors with -1 for "don't care") are
// mutually exclusive and their disjunction over the assigned literals is
// equivalent to the skeleton.
void ExpandShannon(const Skeleton& skeleton, std::vector<int>* assignment,
                   std::size_t next,
                   const std::function<void(const std::vector<int>&)>& emit) {
  int v = EvalSkeletonPartial(skeleton, *assignment);
  if (v == 0) return;
  if (v == 1) {
    emit(*assignment);
    return;
  }
  FOCQ_CHECK_LT(next, assignment->size());
  (*assignment)[next] = 1;
  ExpandShannon(skeleton, assignment, next + 1, emit);
  (*assignment)[next] = 0;
  ExpandShannon(skeleton, assignment, next + 1, emit);
  (*assignment)[next] = -1;
}

constexpr int kMaxPieces = 28;

}  // namespace

Result<ClTerm> CountWithPattern(const Formula& kernel,
                                const std::vector<Var>& vars, bool unary,
                                std::uint32_t r, const PatternGraph& g) {
  const int k = static_cast<int>(vars.size());
  FOCQ_CHECK_GE(k, 1);
  FOCQ_CHECK_EQ(g.num_vertices(), k);
  const std::uint32_t sep = SaturatedRadius(2 * std::uint64_t{r} + 1);

  ExprRef folded = FoldConstants(kernel.ref());
  if (folded->kind == ExprKind::kFalse) return ClTerm();

  if (g.IsConnected()) {
    BasicClTerm basic;
    basic.vars = vars;
    basic.unary = unary;
    basic.kernel = Formula(folded);
    basic.radius = r;
    basic.pattern = g;
    return ClTerm::FromBasic(std::move(basic));
  }

  // Split off V', the component of vertex 0.
  std::vector<int> comp_ids = g.ComponentIds();
  std::vector<int> part1, part2;
  for (int v = 0; v < k; ++v) {
    (comp_ids[v] == comp_ids[0] ? part1 : part2).push_back(v);
  }
  PatternGraph g1 = g.Induced(part1);
  PatternGraph g2 = g.Induced(part2);
  std::vector<Var> vars1, vars2;
  for (int v : part1) vars1.push_back(vars[v]);
  for (int v : part2) vars2.push_back(vars[v]);

  // Anchor every free variable at its own component with slack 0.
  AnchorMap anchors;
  for (int v = 0; v < k; ++v) anchors[vars[v]] = Anchor{comp_ids[v], 0};

  // 1. Purify and fold.
  Result<ExprRef> purified = Purify(folded, anchors, sep);
  if (!purified.ok()) return purified.status();
  ExprRef clean = FoldConstants(*purified);
  if (clean->kind == ExprKind::kFalse) return ClTerm();

  // 2. Shannon expansion over component-pure pieces.
  std::vector<Piece> pieces;
  Result<Skeleton> skeleton = BuildSkeleton(clean, anchors, &pieces);
  if (!skeleton.ok()) return skeleton.status();
  int m = static_cast<int>(pieces.size());
  if (m > kMaxPieces) {
    return Status::Unsupported("kernel has too many pure pieces (" +
                               std::to_string(m) + ")");
  }

  // The crossing-pattern correction set is assignment-independent.
  std::vector<PatternGraph> crossings =
      PatternGraph::CrossingSupergraphs(g, part1, part2);

  ClTerm total;
  Status first_error = Status::Ok();
  std::vector<int> assignment(m, -1);
  auto emit = [&](const std::vector<int>& leaf) {
    if (!first_error.ok()) return;
    // Build the two per-side conjunctions of assigned literals ("don't
    // care" pieces are unconstrained and stay out).
    std::vector<Formula> side1, side2;
    for (int i = 0; i < m; ++i) {
      if (leaf[i] < 0) continue;
      Formula lit(pieces[i].formula);
      if (leaf[i] == 0) lit = Not(lit);
      (pieces[i].component == comp_ids[0] || pieces[i].component < 0 ? side1
                                                                     : side2)
          .push_back(std::move(lit));
    }
    Formula psi1 = And(std::move(side1));
    Formula psi2 = And(std::move(side2));

    Result<ClTerm> t1 = CountWithPattern(psi1, vars1, unary, r, g1);
    if (!t1.ok()) {
      first_error = t1.status();
      return;
    }
    Result<ClTerm> t2 = CountWithPattern(psi2, vars2, /*unary=*/false, r, g2);
    if (!t2.ok()) {
      first_error = t2.status();
      return;
    }
    Result<ClTerm> contribution = ClTerm::Mul(*t1, *t2);

    Formula both = And(psi1, psi2);
    for (const PatternGraph& h : crossings) {
      if (!contribution.ok()) break;
      Result<ClTerm> th = CountWithPattern(both, vars, unary, r, h);
      if (!th.ok()) {
        first_error = th.status();
        return;
      }
      contribution = ClTerm::Sub(*contribution, *th);
    }
    if (contribution.ok()) contribution = ClTerm::Add(total, *contribution);
    if (!contribution.ok()) {
      first_error = contribution.status();
      return;
    }
    total = std::move(contribution).value();
  };
  ExpandShannon(*skeleton, &assignment, 0, emit);
  if (!first_error.ok()) return first_error;
  return total;
}

Result<Decomposition> DecomposeCount(const std::vector<Var>& vars, bool unary,
                                     const Formula& kernel) {
  FOCQ_CHECK_GE(vars.size(), 1u);
  // Free variables of the kernel must be among `vars`.
  std::vector<Var> free = FreeVars(kernel);
  std::vector<Var> sorted_vars = vars;
  std::sort(sorted_vars.begin(), sorted_vars.end());
  for (Var v : free) {
    if (!std::binary_search(sorted_vars.begin(), sorted_vars.end(), v)) {
      return Status::InvalidArgument("kernel has a free variable '" +
                                     VarName(v) +
                                     "' outside the counting tuple");
    }
  }

  std::optional<std::uint32_t> radius = SyntacticLocalityRadius(kernel);
  if (!radius) {
    return Status::Unsupported(
        "kernel is outside the guarded (syntactically local) fragment: " +
        ToString(kernel));
  }

  // The pattern/correction enumeration is doubly exponential in the width;
  // width 4 is where it stops paying for itself (wider counts are still
  // evaluated exactly, through the candidate-driven fallback engine).
  int k = static_cast<int>(vars.size());
  if (k > 4) {
    return Status::Unsupported(
        "counting width " + std::to_string(k) +
        " exceeds the pattern-enumeration limit of this build (4)");
  }
  Decomposition out;
  out.radius = *radius;
  for (const PatternGraph& g : PatternGraph::AllGraphs(k)) {
    Result<ClTerm> t = CountWithPattern(kernel, vars, unary, *radius, g);
    if (t.ok()) t = ClTerm::Add(out.term, *t);
    if (!t.ok()) return t.status();
    out.term = std::move(t).value();
  }
  return out;
}

Result<Decomposition> BasicLocalSentenceTerm(int k, std::uint32_t r, Var y,
                                             const Formula& psi) {
  FOCQ_CHECK_GE(k, 1);
  std::vector<Var> ys;
  std::vector<Formula> parts;
  for (int i = 0; i < k; ++i) {
    Var yi = FreshVar("bls_" + VarName(y));
    ys.push_back(yi);
    parts.push_back(Formula(RenameFreeVar(psi.ref(), y, yi)));
  }
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      parts.push_back(
          Not(DistAtMost(ys[i], ys[j], SaturatedRadius(2 * std::uint64_t{r}))));
    }
  }
  return DecomposeCount(ys, /*unary=*/false, And(std::move(parts)));
}

}  // namespace focq
